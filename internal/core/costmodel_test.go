package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
)

func skewedDataset(t *testing.T, alphaFreq float64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.SyntheticConfig{
		NumRecords: 400, Universe: 5000,
		AlphaFreq: alphaFreq, AlphaSize: 2.5,
		MinSize: 10, MaxSize: 150,
	}
	d, err := dataset.Synthetic(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBufferVarianceCurveShape(t *testing.T) {
	d := skewedDataset(t, 1.2)
	budget := d.TotalElements() / 10
	curve, err := BufferVarianceCurve(d, budget, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) < 2 {
		t.Fatalf("curve has only %d points", len(curve))
	}
	if curve[0].R != 0 {
		t.Errorf("first candidate r = %d, want 0", curve[0].R)
	}
	for i, pt := range curve {
		if pt.Variance < 0 {
			t.Errorf("point %d: negative variance %v", i, pt.Variance)
		}
		if pt.R != i*bufferGridStep {
			t.Errorf("candidate %d is r=%d, not on the %d-bit grid", i, pt.R, bufferGridStep)
		}
	}
	// The buffer can never be allowed to eat the whole budget.
	last := curve[len(curve)-1]
	if bufferUnits(d.NumRecords(), last.R) >= budget {
		t.Errorf("last candidate r=%d exceeds budget", last.R)
	}
}

func TestBufferVarianceCurveErrors(t *testing.T) {
	d := skewedDataset(t, 1.0)
	if _, err := BufferVarianceCurve(nil, 100, 0); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := BufferVarianceCurve(d, 0, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := ClosedFormVarianceCurve(nil, 100, 0); err == nil {
		t.Error("closed form: nil dataset accepted")
	}
	if _, err := ClosedFormVarianceCurve(d, 0, 0); err == nil {
		t.Error("closed form: zero budget accepted")
	}
}

// statsOf counts a dataset as the cost model reads it.
func statsOf(t *testing.T, d *dataset.Dataset) recordStats {
	t.Helper()
	st, err := datasetStats(d)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestOptimalBufferPrefersBufferOnSkewedData(t *testing.T) {
	// With highly skewed element frequencies, buffering the head elements
	// should reduce the model variance, so the chosen r should be positive.
	d := skewedDataset(t, 1.5)
	budget := d.TotalElements() / 10
	r, err := optimalBufferBits(statsOf(t, d), budget, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 {
		t.Errorf("optimal r = %d on skewed data, want positive", r)
	}
}

func TestOptimalBufferIsArgminOfCurve(t *testing.T) {
	d := skewedDataset(t, 1.2)
	budget := d.TotalElements() / 10
	curve, err := BufferVarianceCurve(d, budget, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := optimalBufferBits(statsOf(t, d), budget, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	bestR := 0
	for _, pt := range curve {
		if pt.Variance < best {
			best, bestR = pt.Variance, pt.R
		}
	}
	if r != bestR {
		t.Errorf("optimalBufferBits = %d, curve argmin = %d", r, bestR)
	}
}

func TestClosedFormModelRuns(t *testing.T) {
	d := skewedDataset(t, 1.2)
	budget := d.TotalElements() / 10
	curve, err := ClosedFormVarianceCurve(d, budget, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range curve {
		if math.IsNaN(pt.Variance) {
			t.Fatalf("closed-form variance NaN at r=%d", pt.R)
		}
		if pt.R != i*bufferGridStep || bufferUnits(d.NumRecords(), pt.R) >= budget {
			t.Errorf("closed-form candidate %d is r=%d under a budget of %d", i, pt.R, budget)
		}
	}
}

func TestModelsAgreeOnBufferUsefulness(t *testing.T) {
	// Empirical and closed-form models need not agree exactly, but both
	// should find a finite-variance configuration.
	d := skewedDataset(t, 1.3)
	budget := d.TotalElements() / 10
	for name, model := range map[string]func(*dataset.Dataset, int, uint64) ([]VariancePoint, error){
		"empirical": BufferVarianceCurve, "closed form": ClosedFormVarianceCurve,
	} {
		curve, err := model(d, budget, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		finite := false
		for _, pt := range curve {
			if !math.IsInf(pt.Variance, 1) {
				finite = true
			}
		}
		if !finite {
			t.Errorf("%s cost model produced no finite variance", name)
		}
	}
}

func TestVarianceMonotonicInBudget(t *testing.T) {
	// More budget → lower model variance at the same r.
	d := skewedDataset(t, 1.2)
	small, err := BufferVarianceCurve(d, d.TotalElements()/20, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	large, err := BufferVarianceCurve(d, d.TotalElements()/5, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if small[0].Variance <= large[0].Variance {
		t.Errorf("variance did not shrink with budget: %v vs %v",
			small[0].Variance, large[0].Variance)
	}
}

// TestEmpiricalInputsCountingSort: the counting sort empiricalInputs orders
// the frequencies with gives the float64s, in the order, that a sort of them
// as floats gave, on random frequency tables — uniform and skewed, with the
// zeros of positions no record lists among them.
func TestEmpiricalInputsCountingSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(4000)
		freq := make([]int, rng.Intn(3000))
		for i := range freq {
			switch rng.Intn(3) {
			case 0: // unlisted
			case 1:
				freq[i] = 1 + rng.Intn(m)
			default:
				freq[i] = min(m, 1+int(rng.ExpFloat64()*3))
			}
		}
		var want []float64
		for _, f := range freq {
			if f > 0 {
				want = append(want, float64(f))
			}
		}
		slices.Sort(want)
		slices.Reverse(want)
		st := recordStats{freq: freq, m: m, size: func(int) int { return 1 }}
		if got := empiricalInputs(st, testSeed).freqs; !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d frequencies ordered otherwise than a float sort orders them", trial, len(want))
		}
	}
}
