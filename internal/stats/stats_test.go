package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 2, 2}); got != 0 {
		t.Errorf("Variance(const) = %v, want 0", got)
	}
	// Population variance of {1,2,3,4} is 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("q0.5 = %v", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestMedianProperty(t *testing.T) {
	// At least half the values are ≤ median and at least half are ≥ median.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		med := Median(xs)
		le, ge := 0, 0
		for _, x := range xs {
			if x <= med {
				le++
			}
			if x >= med {
				ge++
			}
		}
		return 2*le >= len(xs) && 2*ge >= len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || !almostEqual(s.Mean, 2, 1e-12) {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEqual(s.Median, 2, 1e-12) {
		t.Errorf("Median = %v", s.Median)
	}
}

// TestAccumulatorMatchesBatch holds the two-pass Mean and Variance to an
// independent reference: Welford's one-pass accumulation of the same samples.
func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 1000)
	var mean, m2 float64
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 1
		d := xs[i] - mean
		mean += d / float64(i+1)
		m2 += d * (xs[i] - mean)
	}
	if !almostEqual(mean, Mean(xs), 1e-9) {
		t.Errorf("one-pass mean %v != batch %v", mean, Mean(xs))
	}
	if !almostEqual(m2/float64(len(xs)), Variance(xs), 1e-9) {
		t.Errorf("one-pass variance %v != batch %v", m2/float64(len(xs)), Variance(xs))
	}
	if s := Summarize(xs); s.N != len(xs) || s.Mean != Mean(xs) || s.StdDev != StdDev(xs) || s.Min != Min(xs) || s.Max != Max(xs) {
		t.Errorf("summary %+v disagrees with the batch functions", s)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.StdDev) ||
		!math.IsNaN(s.Min) || !math.IsNaN(s.Max) || !math.IsNaN(s.Median) {
		t.Errorf("summary of no samples should report NaN, got %+v", s)
	}
}

func TestAccumulatorSingle(t *testing.T) {
	if s := Summarize([]float64{4}); s != (Summary{N: 1, Min: 4, Max: 4, Mean: 4, StdDev: 0, Median: 4}) {
		t.Errorf("single-sample summary wrong: %+v", s)
	}
}
