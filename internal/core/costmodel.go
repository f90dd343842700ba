package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"

	"gbkmv/internal/dataset"
	"gbkmv/internal/powerlaw"
)

// datasetStats counts a dataset held as slices.
func datasetStats(d *dataset.Dataset) (recordStats, error) {
	if d == nil || len(d.Records) == 0 {
		return recordStats{}, errors.New("core: empty dataset")
	}
	return recordStats{freq: d.Frequencies(), sizes: d.RecordSizes()}, nil
}

// optimalBufferBits selects the buffer size r (in bits) that minimizes the
// model variance of the GB-KMV containment estimator under the given budget
// (Section IV-C6 of the paper). Candidate sizes are 0, step, 2·step, ... up
// to the point where the buffer would eat the budget, and the returned r is
// the candidate with the smallest model variance. r = 0 is always a
// candidate, so the chosen buffer is never worse (under the model) than pure
// G-KMV — the paper's constraint V∆ < 0. The statistics are the packed
// build's, which has them from its store.
func optimalBufferBits(st recordStats, budget int, opt Options) (int, error) {
	curve, err := varianceCurve(st, budget, opt)
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
// buffer size, which is exactly the curve plotted in Fig. 5 of the paper.
func BufferVarianceCurve(d *dataset.Dataset, budget int, opt Options) ([]VariancePoint, error) {
	st, err := datasetStats(d)
	if err != nil {
		return nil, err
	}
	return varianceCurve(st, budget, opt)
}

func varianceCurve(st recordStats, budget int, opt Options) ([]VariancePoint, error) {
	opt = opt.withDefaults()
	if budget <= 0 {
		return nil, errors.New("core: budget must be positive")
	}
	in, err := newModelInputs(st, opt)
	if err != nil {
		return nil, err
	}
	m := len(st.sizes)
	step := opt.BufferGridStep
	if step <= 0 {
		step = 8
	}
	var curve []VariancePoint
	for r := 0; ; r += step {
		if bufferUnits(m, r) >= budget || r > len(in.freqs) {
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

// newModelInputs derives the moments either empirically from the collection's
// statistics or from fitted power-law exponents (the paper's closed form).
func newModelInputs(st recordStats, opt Options) (*modelInputs, error) {
	switch opt.CostModel {
	case CostModelEmpirical:
		return empiricalInputs(st, opt)
	case CostModelClosedForm:
		return closedFormInputs(st, opt)
	default:
		return nil, errors.New("core: unknown cost model")
	}
}

func empiricalInputs(st recordStats, opt Options) (*modelInputs, error) {
	freqs := make([]float64, 0, len(st.freq))
	for _, f := range st.freq {
		if f > 0 {
			freqs = append(freqs, float64(f))
		}
	}
	slices.Sort(freqs)
	slices.Reverse(freqs)
	sizes := sampleSizes(st.sizes, opt.CostModelPairSample, int64(opt.Seed)+1)
	return finishInputs(freqs, sizes, len(st.sizes))
}

func closedFormInputs(st recordStats, opt Options) (*modelInputs, error) {
	stats, err := dataset.StatsFrom(st.freq, st.sizes)
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
	sizesInt := st.sizes
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
	rng := rand.New(rand.NewSource(int64(opt.Seed) + 2))
	n := opt.CostModelPairSample
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = float64(dist.Sample(rng))
	}
	return finishInputs(freqs, sizes, len(st.sizes))
}

func finishInputs(freqs, sizes []float64, m int) (*modelInputs, error) {
	if len(freqs) == 0 || len(sizes) == 0 {
		return nil, errors.New("core: not enough data for the cost model")
	}
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
	return in, nil
}

// sampleSizes returns at most n record sizes (all of them when fewer).
func sampleSizes(all []int, n int, seed int64) []float64 {
	if len(all) <= n {
		out := make([]float64, len(all))
		for i, s := range all {
			out[i] = float64(s)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(all))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = float64(all[perm[i]])
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
