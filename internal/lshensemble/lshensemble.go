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
//     at s* (the tuner lives with the forests, in lshforest), returning the
//     union of candidates as the result set.
//
// Using the upper bound u instead of the true record size x inflates the
// estimator by (u+q)/(x+q) (Equation 20), which buys recall at the price of
// precision — the trade-off the paper's experiments dissect.
package lshensemble

import (
	"errors"
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
}

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
	l, maxDepth := lshforest.Shape(opt.NumHashes, opt.MaxBands)

	e := &Ensemble{
		opt:     opt,
		gen:     minhash.NewGenerator(opt.NumHashes, opt.Seed),
		records: d.Records,
		sigs:    sigs,
	}
	for _, r := range d.Records[len(sigs):] {
		e.sigs = append(e.sigs, e.gen.Sign(r))
	}

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
		f, err := lshforest.New(l, maxDepth)
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

// Query returns the candidate set for containment threshold tstar: the union
// over partitions of each forest probe. Per the paper, LSH-E returns the
// candidates directly (no verification step), which is why it favours
// recall.
func (e *Ensemble) Query(q dataset.Record, tstar float64) []int {
	return e.QuerySigSized(e.gen.Sign(q), len(q), tstar)
}

// QuerySigSized runs the partition probes from a precomputed signature (see
// Sign) and an explicit query set size |Q|, so a prepared query pays the
// signing cost once across any number of probes, and a query that had to omit
// elements no indexed record can hold (tokens unknown to a vocabulary) still
// counts them in Q, where they shrink every containment.
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
		b, r := p.forest.OptimalParams(sStar)
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
