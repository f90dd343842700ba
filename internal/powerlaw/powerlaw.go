// Package powerlaw models the two skews that drive GB-KMV's design: the
// element-frequency distribution (exponent α1) and the record-size
// distribution (exponent α2), both assumed power-law in the paper
// (Section IV-C1, p(x) = c·x^-α).
//
// It provides a bounded discrete power-law (zeta/Zipf) sampler used by the
// synthetic dataset generators, maximum-likelihood exponent estimation in the
// style of Clauset, Shalizi & Newman (2009) — the framework the paper itself
// cites for quantifying skewness — and the distribution moments that the
// closed-form GB-KMV cost model consumes.
package powerlaw

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Dist is a discrete power law on {Xmin, ..., Xmax} with
// P(x) ∝ x^-Alpha.
type Dist struct {
	Alpha      float64
	Xmin, Xmax int

	// cdf[i] = P(X ≤ Xmin+i); built lazily by normalize.
	cdf []float64
}

// NewDist constructs a bounded discrete power law. Alpha may be any
// non-negative value; Alpha == 0 is the uniform distribution on the support.
func NewDist(alpha float64, xmin, xmax int) (*Dist, error) {
	switch {
	case math.IsNaN(alpha) || alpha < 0:
		return nil, errors.New("powerlaw: alpha must be non-negative")
	case xmin < 1:
		return nil, errors.New("powerlaw: xmin must be at least 1")
	case xmax < xmin:
		return nil, errors.New("powerlaw: xmax must be ≥ xmin")
	}
	d := &Dist{Alpha: alpha, Xmin: xmin, Xmax: xmax}
	d.normalize()
	return d, nil
}

func (d *Dist) normalize() {
	n := d.Xmax - d.Xmin + 1
	d.cdf = make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(d.Xmin+i), -d.Alpha)
		d.cdf[i] = sum
	}
	for i := range d.cdf {
		d.cdf[i] /= sum
	}
	d.cdf[n-1] = 1 // guard against rounding
}

// Sample draws one value.
func (d *Dist) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.cdf, u)
	if i >= len(d.cdf) {
		i = len(d.cdf) - 1
	}
	return d.Xmin + i
}

// FitMLE estimates the power-law exponent of xs (samples below xmin are
// discarded) by exact maximum likelihood for the bounded discrete power law
// on [xmin, max(xs)], following the framework of Clauset et al. (2009) that
// the paper uses to quantify skewness. The log-likelihood
//
//	ℓ(α) = −α·Σ ln x_i − n·ln Z(α),  Z(α) = Σ_{x=xmin}^{xmax} x^−α
//
// is concave in α (one-parameter exponential family), so a ternary search
// finds the maximizer. It returns an error when fewer than two usable samples
// exist, and +Inf for the degenerate all-equal-to-xmin case.
func FitMLE(xs []int, xmin int) (float64, error) {
	if xmin < 1 {
		return 0, errors.New("powerlaw: xmin must be at least 1")
	}
	n := 0
	sumLog := 0.0
	xmax := xmin
	for _, x := range xs {
		if x < xmin {
			continue
		}
		n++
		sumLog += math.Log(float64(x))
		if x > xmax {
			xmax = x
		}
	}
	if n < 2 {
		return 0, errors.New("powerlaw: need at least 2 samples ≥ xmin")
	}
	if xmax == xmin {
		// All mass at the single support point: infinitely steep.
		return math.Inf(1), nil
	}
	logZ := func(alpha float64) float64 {
		z := 0.0
		for x := xmin; x <= xmax; x++ {
			z += math.Pow(float64(x), -alpha)
		}
		return math.Log(z)
	}
	ll := func(alpha float64) float64 {
		return -alpha*sumLog - float64(n)*logZ(alpha)
	}
	lo, hi := 0.0, 20.0
	for i := 0; i < 200 && hi-lo > 1e-9; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if ll(m1) < ll(m2) {
			lo = m1
		} else {
			hi = m2
		}
	}
	return (lo + hi) / 2, nil
}

// FitFrequencies estimates the exponent of an element-frequency distribution
// given the multiset of per-element frequencies (e.g. counts[i] = number of
// records containing element i). Frequencies below xmin are ignored.
func FitFrequencies(counts []int, xmin int) (float64, error) {
	return FitMLE(counts, xmin)
}

// ZipfWeights returns w[i] ∝ (i+1)^-alpha for i in [0, n), normalized to sum
// to 1. It is the rank-frequency view used when assigning frequencies to a
// ranked element universe.
func ZipfWeights(n int, alpha float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -alpha)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
