// Package lshensemble implements LSH Ensemble (Zhu, Nargesian, Pu & Miller,
// VLDB 2016), the state-of-the-art approximate containment search baseline
// the GB-KMV paper compares against (Section III-A). The method:
//
//  1. partitions the dataset into equal-depth partitions by record size
//     (shown optimal under a power-law size distribution),
//  2. indexes each partition with an LSH Forest over MinHash signatures,
//  3. at query time converts the containment threshold t* to a per-partition
//     Jaccard threshold s* using the partition's size upper bound u
//     (Equation 13), and
//  4. probes each partition's forest with the (b, r) banding parameters that
//     minimize the expected number of false positives plus false negatives
//     at s*, returning the union of candidates as the result set.
//
// Using the upper bound u instead of the true record size x inflates the
// estimator by (u+q)/(x+q) (Equation 20), which buys recall at the price of
// precision — the trade-off the paper's experiments dissect.
package lshensemble

import (
	"errors"
	"math"
	"sort"

	"gbkmv/internal/dataset"
	"gbkmv/internal/lshforest"
	"gbkmv/internal/minhash"
)

// Options configures an Ensemble. The defaults mirror the paper's setup:
// 256 hash functions and 32 partitions.
type Options struct {
	NumHashes     int // MinHash signature length (default 256)
	NumPartitions int // equal-depth size partitions (default 32)
	MaxBands      int // LSH Forest trees per partition (default 32)
	Seed          uint64
}

func (o Options) withDefaults() Options {
	if o.NumHashes == 0 {
		o.NumHashes = 256
	}
	if o.NumPartitions == 0 {
		o.NumPartitions = 32
	}
	if o.MaxBands == 0 {
		o.MaxBands = 32
	}
	return o
}

func (o Options) validate() error {
	if o.NumHashes <= 0 || o.NumPartitions <= 0 || o.MaxBands <= 0 {
		return errors.New("lshensemble: parameters must be positive")
	}
	return nil
}

// partition is one equal-depth size range of the dataset.
type partition struct {
	ids    []int // global record ids, ascending size
	upper  int   // size upper bound u
	lower  int   // smallest record size in the partition
	forest *lshforest.Forest
}

// Ensemble is the built LSH-E index.
type Ensemble struct {
	opt        Options
	gen        *minhash.Generator
	partitions []partition
	records    []dataset.Record    // retained for QueryVerified
	sigs       []minhash.Signature // full signature per record; the forests hold banded copies
	// optParams[i] caches the (b, r) minimizing FP+FN at threshold grid
	// point i (s* = i / paramGrid).
	optParams []bandParam
	maxDepth  int
}

type bandParam struct{ b, r int }

// paramGrid is the resolution of the cached optimal-parameter table.
const paramGrid = 50

// Build constructs the LSH-E index over the dataset. sigs holds the
// signatures of d.Records[:len(sigs)] under opt's hash family (a pure function
// of NumHashes and Seed) — what Signatures returned when a prefix of the
// dataset was built under the same options, nil for a first build; Build
// signs the records past them, each once, and keeps the whole list.
func Build(d *dataset.Dataset, opt Options, sigs []minhash.Signature) (*Ensemble, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if d == nil || len(d.Records) == 0 {
		return nil, errors.New("lshensemble: empty dataset")
	}
	if len(sigs) > len(d.Records) {
		return nil, errors.New("lshensemble: more signatures than records")
	}
	// The forest needs NumHashes divisible into MaxBands trees.
	l := opt.MaxBands
	for opt.NumHashes%l != 0 {
		l--
	}
	maxDepth := opt.NumHashes / l

	e := &Ensemble{
		opt:      opt,
		gen:      minhash.NewGenerator(opt.NumHashes, opt.Seed),
		records:  d.Records,
		sigs:     sigs,
		maxDepth: maxDepth,
	}
	for _, r := range d.Records[len(sigs):] {
		e.sigs = append(e.sigs, e.gen.Sign(r))
	}
	e.buildParamTable(l, maxDepth)

	// Equal-depth partitioning by record size (the optimal strategy under
	// the power-law assumption, Section III-A "Data Partition").
	order := make([]int, len(d.Records))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := len(d.Records[order[a]]), len(d.Records[order[b]])
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	p := opt.NumPartitions
	if p > len(order) {
		p = len(order)
	}
	e.partitions = make([]partition, 0, p)
	per := (len(order) + p - 1) / p
	for start := 0; start < len(order); start += per {
		end := start + per
		if end > len(order) {
			end = len(order)
		}
		ids := order[start:end]
		f, err := lshforest.New(l, maxDepth, opt.Seed)
		if err != nil {
			return nil, err
		}
		for local, id := range ids {
			f.Add(local, e.sigs[id])
		}
		f.Index()
		e.partitions = append(e.partitions, partition{
			ids:    ids,
			lower:  len(d.Records[ids[0]]),
			upper:  len(d.Records[ids[len(ids)-1]]),
			forest: f,
		})
	}
	return e, nil
}

// buildParamTable precomputes, for a grid of Jaccard thresholds, the (b, r)
// pair minimizing the FP+FN probability mass under the uniform-similarity
// assumption the paper adopts:
//
//	FP(b,r | s*) = ∫₀^{s*} 1−(1−s^r)^b ds
//	FN(b,r | s*) = ∫_{s*}^{1} (1−s^r)^b ds
func (e *Ensemble) buildParamTable(l, maxDepth int) {
	e.optParams = make([]bandParam, paramGrid+1)
	for i := 0; i <= paramGrid; i++ {
		sStar := float64(i) / paramGrid
		best := bandParam{b: l, r: 1}
		bestCost := math.Inf(1)
		for r := 1; r <= maxDepth; r++ {
			for b := 1; b <= l; b++ {
				cost := integrate(0, sStar, func(s float64) float64 {
					return collisionProb(s, b, r)
				}) + integrate(sStar, 1, func(s float64) float64 {
					return 1 - collisionProb(s, b, r)
				})
				if cost < bestCost {
					bestCost = cost
					best = bandParam{b: b, r: r}
				}
			}
		}
		e.optParams[i] = best
	}
}

// collisionProb is the banding collision probability 1 − (1 − s^r)^b.
func collisionProb(s float64, b, r int) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(r)), float64(b))
}

// integrate is Simpson's rule with a fixed 24-interval mesh — plenty for the
// smooth collision-probability curves.
func integrate(a, b float64, f func(float64) float64) float64 {
	if b <= a {
		return 0
	}
	const n = 24
	h := (b - a) / n
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// OptimalParams returns the cached (b, r) for Jaccard threshold sStar.
func (e *Ensemble) OptimalParams(sStar float64) (b, r int) {
	if sStar < 0 {
		sStar = 0
	}
	if sStar > 1 {
		sStar = 1
	}
	p := e.optParams[int(math.Round(sStar*paramGrid))]
	return p.b, p.r
}

// Query returns the candidate set for containment threshold tstar: the union
// over partitions of each forest probe. Per the paper, LSH-E returns the
// candidates directly (no verification step), which is why it favours
// recall.
func (e *Ensemble) Query(q dataset.Record, tstar float64) []int {
	return e.QuerySized(q, len(q), tstar)
}

// QuerySized is Query with an explicit query set size |Q|, for callers whose
// query had to omit elements that cannot appear in any indexed record (e.g.
// tokens unknown to a vocabulary) — such elements still belong to Q and
// shrink every containment.
func (e *Ensemble) QuerySized(q dataset.Record, qSize int, tstar float64) []int {
	return e.QuerySigSized(e.gen.Sign(q), qSize, tstar)
}

// QuerySigSized runs the partition probes from a precomputed signature (see
// Sign), so a prepared query pays the signing cost once across any number of
// probes.
func (e *Ensemble) QuerySigSized(sig minhash.Signature, qSize int, tstar float64) []int {
	if qSize == 0 {
		return nil
	}
	out := []int{}
	for _, p := range e.partitions {
		// Size filter: a record smaller than t*·|Q| can never contain
		// t*·|Q| of the query's elements.
		if float64(p.upper) < tstar*float64(qSize) {
			continue
		}
		sStar := minhash.JaccardFromContainment(tstar, p.upper, qSize)
		b, r := e.OptimalParams(sStar)
		for _, local := range p.forest.Query(sig, b, r) {
			out = append(out, p.ids[local])
		}
	}
	sort.Ints(out)
	return out
}

// QueryVerified runs Query and then verifies every candidate against the
// retained records, returning only true results. This is NOT the paper's
// LSH-E (which returns unverified candidates and pays for that in
// precision); it exists as the fair-comparison upper bound on LSH-E's
// achievable accuracy, at the cost of exact containment checks per
// candidate.
func (e *Ensemble) QueryVerified(q dataset.Record, tstar float64) []int {
	out := []int{}
	for _, id := range e.Query(q, tstar) {
		if q.Containment(e.records[id]) >= tstar {
			out = append(out, id)
		}
	}
	return out
}

// Sign computes the MinHash signature of a record under the ensemble's hash
// family, for callers that estimate containment outside the forests (LSH-E's
// forests store banded prefixes, not full signatures).
func (e *Ensemble) Sign(r dataset.Record) minhash.Signature { return e.gen.Sign(r) }

// Signatures returns the full signature of every record, by id: what the
// next Build over a grown dataset takes so that it signs only what is new.
// The slice and its signatures are the ensemble's; do not modify them.
func (e *Ensemble) Signatures() []minhash.Signature { return e.sigs }

// SizeUnits returns the index size in signature units (one stored hash value
// = one unit), the accounting shared with GB-KMV's budget. LSH-E stores
// NumHashes values per record.
func (e *Ensemble) SizeUnits() int { return len(e.records) * e.opt.NumHashes }
