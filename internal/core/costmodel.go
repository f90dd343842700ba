package core

import (
	"errors"
	"math"
	"math/rand"

	"gbkmv/internal/dataset"
	"gbkmv/internal/powerlaw"
)

// datasetStats counts a dataset held as slices.
func datasetStats(d *dataset.Dataset) (recordStats, error) {
	if d == nil || len(d.Records) == 0 {
		return recordStats{}, errors.New("core: empty dataset")
	}
	recs := d.Records
	return recordStats{freq: d.Frequencies(), m: len(recs), size: func(i int) int { return len(recs[i]) }}, nil
}

// The cost model's two constants: the record sizes sampled when averaging
// the model variance over record pairs, and the spacing of the candidate r
// values (the paper's "assign 8, 16, 24, ... to r").
const (
	costModelPairSample = 128
	bufferGridStep      = 8
)

// optimalBufferBits selects the buffer size r (in bits) that minimizes the
// model variance of the GB-KMV containment estimator under the given budget
// (Section IV-C6 of the paper). Candidate sizes are 0, 8, 16, ... up to the
// point where the buffer would eat the budget, and the returned r is the
// candidate with the smallest model variance. r = 0 is always a candidate,
// so the chosen buffer is never worse (under the model) than pure G-KMV —
// the paper's constraint V∆ < 0. The statistics are the build's: the
// frequencies its counting pass summed, and the sizes of the records sampled.
func optimalBufferBits(st recordStats, budget int, seed uint64) (int, error) {
	curve, err := varianceCurve(empiricalInputs(st, seed), budget)
	if err != nil {
		return 0, err
	}
	bestR, bestV := 0, math.Inf(1)
	for _, pt := range curve {
		if pt.Variance < bestV {
			bestR, bestV = pt.R, pt.Variance
		}
	}
	return bestR, nil
}

// VariancePoint is one (r, model variance) sample of the cost function
// f(r, α1, α2, b).
type VariancePoint struct {
	R        int
	Variance float64
}

// BufferVarianceCurve evaluates the model variance for every candidate
// buffer size, which is exactly the curve plotted in Fig. 5 of the paper and
// the one the build's cost model minimises: the dataset's actual
// element-frequency and record-size distributions, no distributional
// assumption.
func BufferVarianceCurve(d *dataset.Dataset, budget int, seed uint64) ([]VariancePoint, error) {
	st, err := datasetStats(d)
	if err != nil {
		return nil, err
	}
	return varianceCurve(empiricalInputs(st, seed), budget)
}

// ClosedFormVarianceCurve is BufferVarianceCurve with the moments taken
// from fitted power-law exponents (α1, α2) instead, as in the paper's
// Equation 33: the closed form the empirical curve evaluates exactly. No
// build uses it; the cost-model ablation builds at its argmin.
func ClosedFormVarianceCurve(d *dataset.Dataset, budget int, seed uint64) ([]VariancePoint, error) {
	st, err := datasetStats(d)
	if err != nil {
		return nil, err
	}
	in, err := closedFormInputs(st, seed)
	if err != nil {
		return nil, err
	}
	return varianceCurve(in, budget)
}

func varianceCurve(in *modelInputs, budget int) ([]VariancePoint, error) {
	if budget <= 0 {
		return nil, errors.New("core: budget must be positive")
	}
	if len(in.freqs) == 0 || len(in.sizes) == 0 {
		return nil, errors.New("core: not enough data for the cost model")
	}
	var curve []VariancePoint
	for r := 0; ; r += bufferGridStep {
		if bufferUnits(in.numRecords, r) >= budget || r > len(in.freqs) {
			break
		}
		curve = append(curve, VariancePoint{R: r, Variance: in.variance(r, budget)})
		if r > 1<<20 {
			break // safety bound; never reached with sane budgets
		}
	}
	if len(curve) == 0 {
		curve = append(curve, VariancePoint{R: 0, Variance: in.variance(0, budget)})
	}
	return curve, nil
}

// modelInputs holds the distribution moments the variance function needs:
// element frequencies sorted in decreasing order (with prefix sums) and a
// sample of record sizes.
type modelInputs struct {
	freqs      []float64 // sorted descending
	prefixF    []float64 // prefix sums of freqs
	prefixF2   []float64 // prefix sums of freqs²
	totalN     float64   // Σ f_i
	numRecords int
	sizes      []float64 // sampled record sizes
}

// empiricalInputs takes the moments from the collection's statistics. A
// frequency is a count of records, an integer no larger than m, so the
// frequencies are put in descending order by a counting sort over their
// values: the float64s a sort of them gives, at a fraction of its cost.
func empiricalInputs(st recordStats, seed uint64) *modelInputs {
	top, distinct := 0, 0
	for _, f := range st.freq {
		if f > 0 {
			top, distinct = max(top, f), distinct+1
		}
	}
	at := make([]uint32, top+1)
	for _, f := range st.freq {
		at[f]++
	}
	freqs := make([]float64, 0, distinct)
	for f := top; f > 0; f-- {
		for range at[f] {
			freqs = append(freqs, float64(f))
		}
	}
	sizes := sampleSizes(st, costModelPairSample, int64(seed)+1)
	return finishInputs(freqs, sizes, st.m)
}

// closedFormInputs takes the moments from the power laws fitted to the
// collection's statistics.
func closedFormInputs(st recordStats, seed uint64) (*modelInputs, error) {
	sizesInt := make([]int, st.m)
	for i := range sizesInt {
		sizesInt[i] = st.size(i)
	}
	stats, err := dataset.StatsFrom(st.freq, sizesInt)
	if err != nil {
		return nil, err
	}
	// Element frequencies from the fitted rank-frequency Zipf law:
	// f_i = N · p_i with p_i ∝ i^−α1 over the d distinct elements.
	nDistinct := stats.DistinctElements
	if nDistinct == 0 {
		return nil, errors.New("core: dataset has no elements")
	}
	w := powerlaw.ZipfWeights(nDistinct, stats.AlphaFreq)
	freqs := make([]float64, nDistinct)
	for i, p := range w {
		freqs[i] = p * float64(stats.TotalElements)
	}
	// Record sizes from the fitted power law on the observed support.
	lo, hi := sizesInt[0], sizesInt[0]
	for _, s := range sizesInt {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	alpha2 := stats.AlphaSize
	if math.IsInf(alpha2, 1) {
		alpha2 = 20
	}
	dist, err := powerlaw.NewDist(alpha2, lo, hi)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed) + 2))
	sizes := make([]float64, costModelPairSample)
	for i := range sizes {
		sizes[i] = float64(dist.Sample(rng))
	}
	return finishInputs(freqs, sizes, st.m), nil
}

func finishInputs(freqs, sizes []float64, m int) *modelInputs {
	in := &modelInputs{
		freqs:      freqs,
		prefixF:    make([]float64, len(freqs)+1),
		prefixF2:   make([]float64, len(freqs)+1),
		numRecords: m,
		sizes:      sizes,
	}
	for i, f := range freqs {
		in.prefixF[i+1] = in.prefixF[i] + f
		in.prefixF2[i+1] = in.prefixF2[i] + f*f
	}
	in.totalN = in.prefixF[len(freqs)]
	return in
}

// sampleSizes returns the sizes of at most n records (all of them when
// fewer), asking st for those alone.
func sampleSizes(st recordStats, n int, seed int64) []float64 {
	if st.m <= n {
		out := make([]float64, st.m)
		for i := range out {
			out[i] = float64(st.size(i))
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(st.m)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = float64(st.size(perm[i]))
	}
	return out
}

// variance evaluates the paper's average GB-KMV estimator variance for
// buffer size r under the budget:
//
//	fr   = Σ_{i≤r} f_i / N          (frequency mass buffered)
//	fn2  = Σ f_i² / N²,  fr2 = Σ_{i≤r} f_i² / N²
//	τ(r) = (b − m·r/32) / (N·(1−fr))
//	D∩  = x_j·x_l·(fn2 − fr2)
//	D∪  = (x_j + x_l)(1 − fr) − D∩
//	k    = τ·(x_j + x_l)(1 − fr) − τ²·x_j·x_l·(fn2 − fr2)
//	Var[Ĉ] = Var_KMV(D∩, D∪, k) / x_j²      (Equation 32, q = x_j)
//
// averaged over ordered pairs of sampled record sizes. These are the
// expected-case quantities of Section IV-C6 computed from the actual
// moments instead of their power-law closed forms.
func (in *modelInputs) variance(r, budget int) float64 {
	if r > len(in.freqs) {
		r = len(in.freqs)
	}
	n := in.totalN
	fr := in.prefixF[r] / n
	fn2 := in.prefixF2[len(in.freqs)] / (n * n)
	fr2 := in.prefixF2[r] / (n * n)
	gBudget := float64(budget - bufferUnits(in.numRecords, r))
	remaining := n * (1 - fr)
	if gBudget <= 0 || remaining <= 0 {
		return math.Inf(1)
	}
	tau := gBudget / remaining
	if tau > 1 {
		tau = 1
	}
	diff2 := fn2 - fr2
	if diff2 < 0 {
		diff2 = 0
	}
	var sum float64
	var cnt int
	for _, xj := range in.sizes {
		for _, xl := range in.sizes {
			dInter := xj * xl * diff2
			dUnion := (xj+xl)*(1-fr) - dInter
			if dUnion <= 0 {
				continue
			}
			k := tau*(xj+xl)*(1-fr) - tau*tau*xj*xl*diff2
			sum += continuousVariance(dInter, dUnion, k) / (xj * xj)
			cnt++
		}
	}
	if cnt == 0 {
		return math.Inf(1)
	}
	return sum / float64(cnt)
}

// continuousVariance is Equation 11 evaluated at a real-valued sketch size.
// The formula has a pole at k = 2 (the estimator is undefined there), so k
// is clamped below at 2.5: the variance stays finite but strongly penalizes
// configurations whose expected sketch size collapses, preserving the
// ordering Lemma 2 guarantees (larger k → smaller variance).
func continuousVariance(dInter, dUnion, k float64) float64 {
	const kMin = 2.5
	if k < kMin {
		k = kMin
	}
	return dInter * (k*dUnion - k*k - dUnion + k + dInter) / (k * (k - 2))
}
