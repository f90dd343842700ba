// Package dataset provides the workload substrate for the reproduction: the
// record model (a record is a set of elements), dataset-level statistics
// (record-size and element-frequency skews, Table II of the paper), synthetic
// generators that mimic the paper's seven real-life datasets, query sampling,
// and (de)serialization.
//
// The paper evaluates on Netflix, Delicious, Canadian Open Data, Enron,
// Reuters, Webspam and WDC Web Tables. Those corpora are not redistributable,
// so Profiles reproduces each one's published shape — power-law exponents α1
// (element frequency) and α2 (record size), record count, average length and
// distinct-element count — at laptop scale. See DESIGN.md §3.
package dataset

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"gbkmv/internal/hash"
	"gbkmv/internal/powerlaw"
	"gbkmv/internal/selectk"
)

// Record is a set of elements, stored sorted and deduplicated.
type Record []hash.Element

// NewRecord builds a Record from possibly unsorted, possibly duplicated
// elements.
func NewRecord(elems []hash.Element) Record {
	r := make([]hash.Element, len(elems))
	copy(r, elems)
	return SortRecord(r)
}

// SortRecord makes a Record of elems in place: for a caller that just filled
// the slice and keeps no other use of it.
func SortRecord(elems []hash.Element) Record {
	slices.Sort(elems)
	return slices.Compact(elems)
}

// Contains reports whether the record contains e (binary search).
func (r Record) Contains(e hash.Element) bool {
	i := sort.Search(len(r), func(i int) bool { return r[i] >= e })
	return i < len(r) && r[i] == e
}

// IntersectSize returns |r ∩ o| by merging the two sorted records.
func (r Record) IntersectSize(o Record) int {
	i, j, c := 0, 0, 0
	for i < len(r) && j < len(o) {
		switch {
		case r[i] < o[j]:
			i++
		case r[i] > o[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// UnionSize returns |r ∪ o|.
func (r Record) UnionSize(o Record) int {
	return len(r) + len(o) - r.IntersectSize(o)
}

// Containment returns C(r, o) = |r ∩ o| / |r|, the containment similarity of
// r in o (Definition 2 of the paper). It returns 0 for an empty r.
func (r Record) Containment(o Record) float64 {
	if len(r) == 0 {
		return 0
	}
	return float64(r.IntersectSize(o)) / float64(len(r))
}

// Jaccard returns J(r, o) = |r ∩ o| / |r ∪ o| (Definition 1). It returns 0
// when both records are empty.
func (r Record) Jaccard(o Record) float64 {
	u := r.UnionSize(o)
	if u == 0 {
		return 0
	}
	return float64(r.IntersectSize(o)) / float64(u)
}

// Dataset is a collection of records over a dense element universe
// {0, ..., UniverseSize-1}.
type Dataset struct {
	Records  []Record
	Universe int // number of distinct element ids allocated (upper bound)
}

// NumRecords returns m, the number of records.
func (d *Dataset) NumRecords() int { return len(d.Records) }

// TotalElements returns N = Σ|X_i|, the total number of element occurrences.
func (d *Dataset) TotalElements() int {
	n := 0
	for _, r := range d.Records {
		n += len(r)
	}
	return n
}

// Frequencies returns freq[e] = number of records containing element e, for
// every e in [0, Universe).
func (d *Dataset) Frequencies() []int {
	freq := make([]int, d.Universe)
	for _, r := range d.Records {
		for _, e := range r {
			freq[e]++
		}
	}
	return freq
}

// RecordSizes returns the multiset of record sizes.
func (d *Dataset) RecordSizes() []int {
	out := make([]int, len(d.Records))
	for i, r := range d.Records {
		out[i] = len(r)
	}
	return out
}

// TopFrequent returns the ids of the r most frequent elements in decreasing
// frequency order (ties broken by element id for determinism). If r exceeds
// the number of occurring elements, all occurring elements are returned.
func (d *Dataset) TopFrequent(r int) []hash.Element {
	return TopFrequentFrom(d.Frequencies(), nil, r)
}

// TopFrequentFrom is TopFrequent over a precomputed frequency table, for
// callers that need the table for other decisions too and should not pay a
// second counting pass: freq[pos] is the number of records listing the
// element elems[pos], or the element pos itself when elems is nil. The r are
// selected before they are sorted — the r-th largest frequency is an order
// statistic, and what ties on it goes to the smaller ids — and returned in a
// slice of exactly their number: a caller that keeps them (an index keeps its
// E_H) keeps nothing sized by the table.
func TopFrequentFrom(freq []int, elems []hash.Element, r int) []hash.Element {
	occurring := make([]int, 0, len(freq))
	for _, f := range freq {
		if f > 0 {
			occurring = append(occurring, f)
		}
	}
	r = max(0, min(r, len(occurring)))
	if r == 0 {
		return []hash.Element{}
	}
	type counted struct {
		e hash.Element
		f int
	}
	elem := func(pos int) hash.Element {
		if elems == nil {
			return hash.Element(pos)
		}
		return elems[pos]
	}
	// Every frequency above the r-th largest is in; of those equal to it,
	// as many as are left, the smallest ids first. Positions that are the
	// ids come in id order, so the first ties are the ones; elsewhere every
	// tie is a candidate.
	cut := selectk.Select(occurring, len(occurring)-r)
	need, tied := r, 0
	for _, f := range occurring {
		if f > cut {
			need--
		} else if f == cut {
			tied++
		}
	}
	if elems == nil {
		tied = need
	}
	top := make([]counted, 0, r)
	ties := make([]hash.Element, 0, tied)
	for pos, f := range freq {
		if f > cut {
			top = append(top, counted{elem(pos), f})
		} else if f == cut && len(ties) < tied {
			ties = append(ties, elem(pos))
		}
	}
	slices.Sort(ties)
	for _, e := range ties[:need] {
		top = append(top, counted{e, cut})
	}
	slices.SortFunc(top, func(a, b counted) int {
		return cmp.Or(cmp.Compare(b.f, a.f), cmp.Compare(a.e, b.e))
	})
	ids := make([]hash.Element, r)
	for i, c := range top {
		ids[i] = c.e
	}
	return ids
}

// Stats summarizes a dataset in the shape of Table II of the paper.
type Stats struct {
	NumRecords       int
	AvgRecordLen     float64
	DistinctElements int
	TotalElements    int
	AlphaFreq        float64 // fitted element-frequency exponent (α1)
	AlphaSize        float64 // fitted record-size exponent (α2)
}

// ComputeStats fits both power-law exponents and gathers the Table II
// summary. Fitting uses xmin=1 for frequencies and the dataset's minimum
// record size for sizes.
func (d *Dataset) ComputeStats() (Stats, error) {
	return StatsFrom(d.Frequencies(), d.RecordSizes())
}

// StatsFrom is ComputeStats for a caller that holds the frequency table
// (Frequencies) and the record sizes (RecordSizes) and not the records.
func StatsFrom(freq, sizes []int) (Stats, error) {
	s := Stats{NumRecords: len(sizes)}
	for _, x := range sizes {
		s.TotalElements += x
	}
	if len(sizes) > 0 {
		s.AvgRecordLen = float64(s.TotalElements) / float64(len(sizes))
	}
	occurring := make([]int, 0, len(freq))
	for _, f := range freq {
		if f > 0 {
			occurring = append(occurring, f)
		}
	}
	s.DistinctElements = len(occurring)
	a1, err := powerlaw.FitFrequencies(occurring, 1)
	if err != nil {
		return s, fmt.Errorf("dataset: fitting α1: %w", err)
	}
	s.AlphaFreq = a1
	minSize := 1
	if len(sizes) > 0 {
		minSize = slices.Min(sizes)
	}
	a2, err := powerlaw.FitMLE(sizes, minSize)
	if err != nil {
		return s, fmt.Errorf("dataset: fitting α2: %w", err)
	}
	s.AlphaSize = a2
	return s, nil
}

// SampleQueries draws n records (without replacement when possible) to act
// as queries, per the paper's protocol "the query Q is randomly chosen from
// the records".
func (d *Dataset) SampleQueries(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	m := len(d.Records)
	if m == 0 || n <= 0 {
		return nil
	}
	if n >= m {
		out := make([]Record, m)
		copy(out, d.Records)
		return out
	}
	perm := rng.Perm(m)
	out := make([]Record, n)
	for i := 0; i < n; i++ {
		out[i] = d.Records[perm[i]]
	}
	return out
}

// SyntheticConfig parameterizes the synthetic generator.
type SyntheticConfig struct {
	NumRecords int     // m
	Universe   int     // n, number of distinct element ids
	AlphaFreq  float64 // α1: Zipf exponent of element popularity ranks
	AlphaSize  float64 // α2: power-law exponent of record sizes
	MinSize    int     // smallest record size (paper discards < 10)
	MaxSize    int     // largest record size
}

// Validate checks the configuration.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.NumRecords <= 0:
		return errors.New("dataset: NumRecords must be positive")
	case c.Universe <= 0:
		return errors.New("dataset: Universe must be positive")
	case c.AlphaFreq < 0 || c.AlphaSize < 0:
		return errors.New("dataset: exponents must be non-negative")
	case c.MinSize <= 0 || c.MaxSize < c.MinSize:
		return errors.New("dataset: need 0 < MinSize ≤ MaxSize")
	case c.MaxSize > c.Universe:
		return errors.New("dataset: MaxSize cannot exceed Universe")
	}
	return nil
}

// recordGen draws one synthetic record at a time: Zipf element popularity,
// power-law record sizes.
type recordGen struct {
	rng      *rand.Rand
	sizeDist *powerlaw.Dist
	sampler  *zipfSampler
	seen     map[hash.Element]struct{}
}

func newRecordGen(cfg SyntheticConfig, seed int64) (*recordGen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sizeDist, err := powerlaw.NewDist(cfg.AlphaSize, cfg.MinSize, cfg.MaxSize)
	if err != nil {
		return nil, err
	}
	return &recordGen{
		rng:      rand.New(rand.NewSource(seed)),
		sizeDist: sizeDist,
		sampler:  newZipfSampler(cfg.Universe, cfg.AlphaFreq),
		seen:     make(map[hash.Element]struct{}, cfg.MaxSize),
	}, nil
}

// next draws the generator's next record.
func (g *recordGen) next() Record {
	size := g.sizeDist.Sample(g.rng)
	elems := make([]hash.Element, 0, size)
	for k := range g.seen {
		delete(g.seen, k)
	}
	// Rejection-sample distinct elements. With Universe >> size this
	// terminates quickly; a deterministic fallback fills from the most
	// popular unseen ranks if rejection stalls.
	attempts := 0
	for len(elems) < size && attempts < 50*size {
		attempts++
		e := g.sampler.sample(g.rng)
		if _, dup := g.seen[e]; dup {
			continue
		}
		g.seen[e] = struct{}{}
		elems = append(elems, e)
	}
	for e := hash.Element(0); len(elems) < size; e++ {
		if _, dup := g.seen[e]; dup {
			continue
		}
		g.seen[e] = struct{}{}
		elems = append(elems, e)
	}
	return NewRecord(elems)
}

// Synthetic generates a dataset whose element frequencies follow a Zipf law
// with exponent α1 over popularity ranks and whose record sizes follow a
// bounded discrete power law with exponent α2 (Section IV-C1 assumptions).
// Element ids are assigned so that id 0 is the most popular element.
// Generation is deterministic in (cfg, seed).
func Synthetic(cfg SyntheticConfig, seed int64) (*Dataset, error) {
	gen, err := newRecordGen(cfg, seed)
	if err != nil {
		return nil, err
	}
	records := make([]Record, cfg.NumRecords)
	for i := range records {
		records[i] = gen.next()
	}
	return &Dataset{Records: records, Universe: cfg.Universe}, nil
}

// Uniform generates the supplementary-experiment dataset of Section V-F:
// record sizes uniform on [minSize, maxSize] and each element drawn uniformly
// from the universe.
func Uniform(numRecords, universe, minSize, maxSize int, seed int64) (*Dataset, error) {
	cfg := SyntheticConfig{
		NumRecords: numRecords,
		Universe:   universe,
		AlphaFreq:  0,
		AlphaSize:  0,
		MinSize:    minSize,
		MaxSize:    maxSize,
	}
	return Synthetic(cfg, seed)
}

// zipfSampler draws element ids with P(id = i) ∝ (i+1)^-alpha via inverse
// CDF sampling with binary search.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int, alpha float64) *zipfSampler {
	w := powerlaw.ZipfWeights(n, alpha)
	cdf := make([]float64, n)
	sum := 0.0
	for i, x := range w {
		sum += x
		cdf[i] = sum
	}
	cdf[n-1] = 1
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) sample(rng *rand.Rand) hash.Element {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return hash.Element(i)
}
