package powerlaw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDistValidation(t *testing.T) {
	cases := []struct {
		alpha      float64
		xmin, xmax int
	}{
		{-1, 1, 10},
		{math.NaN(), 1, 10},
		{1, 0, 10},
		{1, 5, 4},
	}
	for _, c := range cases {
		if _, err := NewDist(c.alpha, c.xmin, c.xmax); err == nil {
			t.Errorf("NewDist(%v,%d,%d) accepted invalid input", c.alpha, c.xmin, c.xmax)
		}
	}
}

// pmf is P(X = x) as the sampler's table holds it, 0 outside the support:
// the reference the sampling tests compare against.
func pmf(d *Dist, x int) float64 {
	if x < d.Xmin || x > d.Xmax {
		return 0
	}
	if i := x - d.Xmin; i > 0 {
		return d.cdf[i] - d.cdf[i-1]
	}
	return d.cdf[0]
}

// TestPMFSumsToOne: the table is a distribution with mass ∝ x^-α.
func TestPMFSumsToOne(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 1.1, 2.5} {
		d, err := NewDist(alpha, 1, 500)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for x := 1; x <= 500; x++ {
			p := pmf(d, x)
			if want := pmf(d, 1) * math.Pow(float64(x), -alpha); math.Abs(p-want) > 1e-12 {
				t.Fatalf("alpha=%v: P(%d) = %v, want %v·P(1) = %v", alpha, x, p, math.Pow(float64(x), -alpha), want)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 || d.cdf[len(d.cdf)-1] != 1 {
			t.Errorf("alpha=%v: masses sum to %v, table ends at %v", alpha, sum, d.cdf[len(d.cdf)-1])
		}
	}
}

// TestPMFOutsideSupport: the table spans the support and nothing else.
func TestPMFOutsideSupport(t *testing.T) {
	d, _ := NewDist(1, 5, 10)
	if len(d.cdf) != 6 || d.cdf[0] <= 0 {
		t.Errorf("table of [5, 10] has %d entries starting at %v", len(d.cdf), d.cdf[0])
	}
}

func TestPMFMonotoneDecreasing(t *testing.T) {
	d, _ := NewDist(1.5, 1, 100)
	for x := 1; x < 100; x++ {
		if pmf(d, x) < pmf(d, x+1) {
			t.Fatalf("mass not decreasing at x=%d", x)
		}
	}
}

func TestUniformWhenAlphaZero(t *testing.T) {
	d, _ := NewDist(0, 1, 10)
	want := 0.1
	for x := 1; x <= 10; x++ {
		if math.Abs(pmf(d, x)-want) > 1e-12 {
			t.Errorf("P(%d) = %v, want %v", x, pmf(d, x), want)
		}
	}
}

func TestSampleWithinSupport(t *testing.T) {
	d, _ := NewDist(1.2, 10, 99)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		x := d.Sample(rng)
		if x < 10 || x > 99 {
			t.Fatalf("sample %d outside support [10, 99]", x)
		}
	}
}

func TestSampleMatchesPMF(t *testing.T) {
	d, _ := NewDist(1.0, 1, 20)
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	counts := make([]int, 21)
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	for x := 1; x <= 20; x++ {
		got := float64(counts[x]) / n
		want := pmf(d, x)
		// 5-sigma binomial bound.
		tol := 5 * math.Sqrt(want*(1-want)/n)
		if math.Abs(got-want) > tol {
			t.Errorf("x=%d: empirical %v vs PMF %v (tol %v)", x, got, want, tol)
		}
	}
}

func TestMeanAgainstClosedForm(t *testing.T) {
	// Uniform on [1, 9]: mean 5, standard deviation 2.58, so the mean of
	// 100 000 draws has a standard error of 0.008.
	d, _ := NewDist(0, 1, 9)
	rng := rand.New(rand.NewSource(3))
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	if got := float64(sum) / n; math.Abs(got-5) > 0.05 {
		t.Errorf("sample mean = %v, want 5", got)
	}
}

func TestFitMLERecoversAlpha(t *testing.T) {
	for _, alpha := range []float64{1.2, 2.0, 3.0} {
		d, _ := NewDist(alpha, 1, 100000)
		rng := rand.New(rand.NewSource(int64(alpha * 100)))
		xs := make([]int, 50000)
		for i := range xs {
			xs[i] = d.Sample(rng)
		}
		got, err := FitMLE(xs, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Exact bounded discrete MLE: expect close recovery.
		if math.Abs(got-alpha)/alpha > 0.1 {
			t.Errorf("alpha=%v: fitted %v", alpha, got)
		}
	}
}

func TestFitMLEErrors(t *testing.T) {
	if _, err := FitMLE(nil, 1); err == nil {
		t.Error("FitMLE(nil) should error")
	}
	if _, err := FitMLE([]int{5}, 1); err == nil {
		t.Error("FitMLE with 1 sample should error")
	}
	if _, err := FitMLE([]int{2, 3}, 0); err == nil {
		t.Error("FitMLE with xmin=0 should error")
	}
}

func TestFitMLEDegenerate(t *testing.T) {
	got, err := FitMLE([]int{1, 1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("degenerate fit = %v, want +Inf", got)
	}
}

func TestFitMLEIgnoresBelowXmin(t *testing.T) {
	xs := []int{1, 1, 1, 50, 60, 70, 80}
	withAll, _ := FitMLE(xs, 1)
	tailOnly, _ := FitMLE(xs, 50)
	if withAll == tailOnly {
		t.Error("xmin filtering had no effect")
	}
}

func TestZipfWeightsNormalized(t *testing.T) {
	f := func(nRaw uint8, alphaRaw uint8) bool {
		n := int(nRaw)%100 + 1
		alpha := float64(alphaRaw) / 64.0
		w := ZipfWeights(n, alpha)
		sum := 0.0
		for i, x := range w {
			sum += x
			if i > 0 && x > w[i-1]+1e-15 {
				return false // must be non-increasing
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSample(b *testing.B) {
	d, _ := NewDist(1.2, 1, 100000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}
