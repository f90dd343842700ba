package core_test

import (
	"fmt"
	"math"
	"testing"

	"gbkmv"
	"gbkmv/internal/core"
	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/stats"
)

// The GB-KMV containment estimator is the paper's: the buffered part of
// |Q ∩ X| is counted exactly, the rest is the G-KMV estimate (Equations
// 24–27), which is unbiased over the choice of hash function with the
// variance of Equation 11. The hash seed is that choice, so over many seeds
// the mean estimate of a pair of known containment must sit on the truth and
// the spread of the estimates must be what EstimateWithError predicts — at
// every τ, buffer size and skew the index can be built with.

// estimatorSeeds is the number of hash functions an estimate is averaged
// over; estimatorVarianceFactor is how far the empirical variance over them
// may sit from the mean Equation 11 prediction, either way. The prediction is
// the KMV formula evaluated at each seed's estimated D∩ and D∪ and realised k,
// and 200 draws of a skewed statistic estimate a variance to within a quarter
// or so: measured ratios lie in [0.70, 1.10] (median 0.95: the prediction
// leans high).
const (
	estimatorSeeds          = 200
	estimatorVarianceFactor = 1.6
)

// estimatorPair is a query against record x of the corpus, with the true
// containment C(Q, X).
type estimatorPair struct {
	q     dataset.Record
	x     int
	truth float64
}

// strided returns n elements of r, evenly spaced: ids are popularity ranks,
// so the pick spans frequent (bufferable) and rare elements alike.
func strided(r dataset.Record, n int) []hash.Element {
	out := make([]hash.Element, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r[i*len(r)/n])
	}
	return out
}

// estimatorCorpus is a Zipf(alpha) collection with, for each of its two
// largest records X, a query holding a quarter and a query holding half of
// its 240 elements in X. Containments stay at or under one half on purpose:
// EstimateContainment clamps at 1, and a pair near 1 would read biased at a
// small τ for that reason alone.
func estimatorCorpus(t *testing.T, alpha float64) (*dataset.Dataset, []estimatorPair) {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 120, Universe: 5000,
		AlphaFreq: alpha, AlphaSize: 2.0,
		MinSize: 80, MaxSize: 400,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	first, second := 0, 1
	for i, r := range d.Records {
		switch {
		case len(r) > len(d.Records[first]):
			first, second = i, first
		case i != first && len(r) > len(d.Records[second]):
			second = i
		}
	}
	const qSize = 240
	var pairs []estimatorPair
	for _, x := range []int{first, second} {
		in := make(map[hash.Element]bool)
		for _, e := range d.Records[x] {
			in[e] = true
		}
		var outside dataset.Record
		for e := 0; e < d.Universe; e++ {
			if !in[hash.Element(e)] {
				outside = append(outside, hash.Element(e))
			}
		}
		for _, c := range []float64{0.25, 0.5} {
			inside := int(c * qSize)
			q := dataset.NewRecord(append(strided(d.Records[x], inside), strided(outside, qSize-inside)...))
			pairs = append(pairs, estimatorPair{q: q, x: x, truth: q.Containment(d.Records[x])})
		}
	}
	return d, pairs
}

func TestContainmentEstimatorIsThePapers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds some 8 000 small indexes")
	}
	for _, alpha := range []float64{0.8, 1.2} {
		d, pairs := estimatorCorpus(t, alpha)
		records := func() []gbkmv.Record { return append([]gbkmv.Record(nil), d.Records...) }
		build := func(opt core.Options) *core.Index {
			ix, err := core.BuildIndex(&dataset.Dataset{Records: records(), Universe: d.Universe}, opt)
			if err != nil {
				t.Fatalf("%+v: %v", opt, err)
			}
			return ix
		}
		// At τ = 1 every sketch is lossless and nothing is left to average: a
		// tenth of the seeds show that the hash function does not matter.
		for _, budget := range []struct {
			name  string
			units int // 0: the default BudgetFraction
			seeds int
		}{
			{"tau=1", 2 * d.TotalElements(), estimatorSeeds / 10},
			{"default", 0, estimatorSeeds},
			{"units=800", 800, estimatorSeeds},
		} {
			// The cost model's r is a function of the frequencies, the sizes
			// and the budget, not of the hash function: resolved once.
			auto := build(core.Options{BudgetUnits: budget.units, BufferBits: core.AutoBuffer}).BufferBits()
			for _, r := range []int{0, 64, auto} {
				t.Run(fmt.Sprintf("alpha=%v/%s/r=%d", alpha, budget.name, r), func(t *testing.T) {
					checkEstimator(t, d, pairs, budget.seeds, func(seed uint64) *core.Index {
						ix := build(core.Options{BudgetUnits: budget.units, BufferBits: r, Seed: seed})
						if budget.name == "tau=1" && ix.Tau() != 1 {
							t.Fatalf("seed %d: τ = %v, fixture wants 1", seed, ix.Tau())
						}
						return ix
					})
				})
			}
		}
	}
}

// checkEstimator estimates every pair under hash seeds 1000 … 1000+seeds−1
// and holds the mean to the truth and the variance to the Equation 11
// prediction.
func checkEstimator(t *testing.T, d *dataset.Dataset, pairs []estimatorPair, seeds int, build func(seed uint64) *core.Index) {
	// est[p][s] is pair p under seed s; predicted[p][s] the squared standard
	// error the index reports beside its estimate.
	est, predicted := make([][]float64, len(pairs)), make([][]float64, len(pairs))
	for s := 0; s < seeds; s++ {
		seed := uint64(1000 + s)
		ix := build(seed)
		for p, pair := range pairs {
			sig := ix.Sketch(pair.q)
			e, se := ix.EstimateWithError(sig, pair.x)
			if c := ix.EstimateContainment(sig, pair.x); c != e {
				t.Fatalf("seed %d: EstimateContainment %v, EstimateWithError %v", seed, c, e)
			}
			est[p] = append(est[p], e)
			predicted[p] = append(predicted[p], se*se)
		}
		// The buffer part is exact: a query inside E_H is answered without
		// error under every hash function.
		if eh := ix.BufferElements(); len(eh) > 0 {
			q := dataset.NewRecord(append([]hash.Element(nil), eh[:min(8, len(eh))]...))
			x := d.Records[pairs[0].x]
			if e, se := ix.EstimateWithError(ix.Sketch(q), pairs[0].x); e != q.Containment(x) || se != 0 {
				t.Fatalf("seed %d: Q ⊆ E_H estimated %v ± %v, truth %v", seed, e, se, q.Containment(x))
			}
		}
	}
	for p, pair := range pairs {
		want := stats.Mean(predicted[p])
		mean, variance := stats.Mean(est[p]), stats.Variance(est[p])
		if want == 0 {
			// Lossless sketches are exact. (Up to a collision of two
			// 32-bit keys, which counts a pair of distinct elements as
			// one: seed 1030 has one between elements 156 and 1003 at
			// alpha 1.2, past the seeds the τ = 1 fixtures use.)
			if mean != pair.truth || variance != 0 {
				t.Errorf("pair %d, seeds 1000–%d: lossless estimates have mean %v, variance %v; truth %v",
					p, 999+seeds, mean, variance, pair.truth)
			}
			continue
		}
		se := math.Sqrt(variance / float64(seeds))
		z, ratio := (mean-pair.truth)/se, variance/want
		t.Logf("pair %d (truth %.4f): mean %.4f (%+.2f standard errors), variance %.3g (%.2fx predicted)",
			p, pair.truth, mean, z, variance, ratio)
		if math.Abs(z) > 3 {
			t.Errorf("pair %d, seeds 1000–%d: mean estimate %.4f is %+.1f standard errors from the truth %.4f",
				p, 999+seeds, mean, z, pair.truth)
		}
		if ratio > estimatorVarianceFactor || ratio < 1/estimatorVarianceFactor {
			t.Errorf("pair %d, seeds 1000–%d: empirical variance %.3g is %.2fx the Equation 11 prediction %.3g, outside %.1fx",
				p, 999+seeds, variance, ratio, want, estimatorVarianceFactor)
		}
	}
}
