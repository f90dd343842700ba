package core

import (
	"math"
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
	curve, err := BufferVarianceCurve(d, budget, Options{Seed: testSeed})
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
		if i > 0 && pt.R <= curve[i-1].R {
			t.Errorf("candidates not increasing at %d", i)
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
	if _, err := BufferVarianceCurve(nil, 100, Options{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := BufferVarianceCurve(d, 0, Options{}); err == nil {
		t.Error("zero budget accepted")
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
	r, err := optimalBufferBits(statsOf(t, d), budget, Options{Seed: testSeed})
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
	opt := Options{Seed: testSeed}
	curve, err := BufferVarianceCurve(d, budget, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := optimalBufferBits(statsOf(t, d), budget, opt)
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
	r, err := optimalBufferBits(statsOf(t, d), budget, Options{Seed: testSeed, CostModel: CostModelClosedForm})
	if err != nil {
		t.Fatal(err)
	}
	if r < 0 {
		t.Errorf("closed-form optimal r = %d", r)
	}
	curve, err := BufferVarianceCurve(d, budget, Options{Seed: testSeed, CostModel: CostModelClosedForm})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range curve {
		if math.IsNaN(pt.Variance) {
			t.Fatalf("closed-form variance NaN at r=%d", pt.R)
		}
	}
}

func TestModelsAgreeOnBufferUsefulness(t *testing.T) {
	// Empirical and closed-form models need not agree exactly, but both
	// should find a finite-variance configuration.
	d := skewedDataset(t, 1.3)
	budget := d.TotalElements() / 10
	for _, cm := range []CostModel{CostModelEmpirical, CostModelClosedForm} {
		curve, err := BufferVarianceCurve(d, budget, Options{Seed: testSeed, CostModel: cm})
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
			t.Errorf("cost model %d produced no finite variance", cm)
		}
	}
}

func TestVarianceMonotonicInBudget(t *testing.T) {
	// More budget → lower model variance at the same r.
	d := skewedDataset(t, 1.2)
	opt := Options{Seed: testSeed}
	small, err := BufferVarianceCurve(d, d.TotalElements()/20, opt)
	if err != nil {
		t.Fatal(err)
	}
	large, err := BufferVarianceCurve(d, d.TotalElements()/5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if small[0].Variance <= large[0].Variance {
		t.Errorf("variance did not shrink with budget: %v vs %v",
			small[0].Variance, large[0].Variance)
	}
}

func TestBufferGridStepHonored(t *testing.T) {
	d := skewedDataset(t, 1.2)
	budget := d.TotalElements() / 10
	curve, err := BufferVarianceCurve(d, budget, Options{Seed: testSeed, BufferGridStep: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range curve {
		if pt.R%16 != 0 {
			t.Errorf("candidate r=%d not on 16-grid", pt.R)
		}
	}
}
