// Package gbkmv is a Go implementation of GB-KMV, the augmented KMV sketch
// for approximate containment similarity search of Yang, Zhang, Zhang &
// Huang (ICDE 2019, arXiv:1809.00458).
//
// Given a collection of records (sets of elements) and a query record Q, a
// containment similarity search returns every record X whose containment
// similarity C(Q, X) = |Q ∩ X| / |Q| reaches a threshold t*. GB-KMV answers
// such queries approximately from a compact, data-dependent sketch:
//
//   - a KMV sketch with a global hash threshold τ (G-KMV), which makes the
//     usable sketch size for a pair |L_Q ∪ L_X| instead of min(k_Q, k_X),
//     and
//   - a small bitmap buffer per record that stores the presence of the
//     top-r most frequent elements exactly, with r chosen by a
//     variance-based cost model.
//
// # Quick start
//
//	voc := gbkmv.NewVocabulary()
//	records := []gbkmv.Record{
//	    voc.Record([]string{"five", "guys", "burgers", "and", "fries"}),
//	    voc.Record([]string{"five", "kitchen", "berkeley"}),
//	}
//	ix, err := gbkmv.Build(records, gbkmv.Options{})
//	if err != nil { ... }
//	q := voc.Record([]string{"five", "guys"})
//	ids := ix.Search(q, 0.5) // records containing ≥ half of q
//
// The internal packages implement every subsystem of the paper's evaluation
// (plain KMV, MinHash, LSH Forest, LSH Ensemble, PPjoin*-style and
// inverted-index exact search, synthetic workload generators); see DESIGN.md
// and cmd/experiments for the full reproduction harness.
package gbkmv

import (
	"errors"
	"fmt"

	"gbkmv/internal/core"
	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// Element is the integer id of a set element.
type Element = hash.Element

// Record is a set of elements, sorted and deduplicated. Build one from raw
// ids with NewRecord or from string tokens with Vocabulary.Record.
type Record = dataset.Record

// NewRecord builds a Record from (possibly unsorted, duplicated) element
// ids.
func NewRecord(elems []Element) Record { return dataset.NewRecord(elems) }

// Buffer-size sentinels for Options.BufferBits: AutoBuffer (the zero value,
// and the recommended setting) selects the buffer size with the variance cost
// model of Section IV-C6; NoBuffer disables the frequent-element buffer,
// producing a pure G-KMV sketch.
const (
	AutoBuffer = core.AutoBuffer
	NoBuffer   = core.NoBuffer
)

// Options configures Build: the budget (BudgetFraction of the collection's
// element occurrences, default 0.10, or BudgetUnits 32-bit signature units),
// the buffer size BufferBits and the hash Seed.
type Options = core.Options

// Index is a GB-KMV sketch of a record collection supporting approximate
// containment similarity search.
type Index struct {
	inner *core.Index
	name  string // registry name; "" is DefaultEngine, for Build and Load callers
}

// Build constructs an Index over the records, which must each be sorted and
// deduplicated (NewRecord). The index keeps its own packed copy of them (the
// coding its snapshot stores, about a sixth of the slices' bytes for
// vocabulary ids): the slice and its records stay the caller's, and nothing
// reads them once Build has returned.
func Build(records []Record, opt Options) (*Index, error) {
	if len(records) == 0 {
		return nil, errors.New("gbkmv: no records")
	}
	return buildIndex(records, opt)
}

// buildIndex is the one build from slices, behind Build and the gbkmv and gkmv
// engines: the index codes its own copy of the records as it builds, and keeps
// none of the slices.
func buildIndex(records []Record, opt Options) (*Index, error) {
	inner, err := core.BuildIndex(&dataset.Dataset{Records: records}, opt)
	if err != nil {
		return nil, unsortedError(err)
	}
	return &Index{inner: inner}, nil
}

// unsortedError states a refused record that is not sorted and deduplicated
// one way, whichever entry point and engine refused it; any other error is
// returned as it is.
func unsortedError(err error) error {
	var unsorted snapfmt.UnsortedError
	if errors.As(err, &unsorted) {
		return fmt.Errorf("gbkmv: %w (see NewRecord)", unsorted)
	}
	return err
}

// Search returns the ids (positions in the build slice) of all records whose
// estimated containment similarity C(Q, X) is at least threshold, in
// ascending order.
func (ix *Index) Search(q Record, threshold float64) []int {
	return ix.inner.Search(q, threshold)
}

// Estimate returns the estimated containment similarity C(Q, X_i) of the
// query in record i.
func (ix *Index) Estimate(q Record, i int) float64 {
	return ix.inner.EstimateContainment(ix.inner.Sketch(q), i)
}

// EstimateAll returns the estimated containment of the query in every
// record; useful for top-k style post-processing.
func (ix *Index) EstimateAll(q Record) []float64 {
	sig := ix.inner.Sketch(q)
	out := make([]float64, ix.inner.NumRecords())
	for i := range out {
		out[i] = ix.inner.EstimateContainment(sig, i)
	}
	return out
}

// Add appends a record to the index under the fixed space budget: the global
// threshold shrinks as needed (Section IV-B, "Processing Dynamic Data"). It
// returns the new record's id. A record that is not sorted and deduplicated
// (see NewRecord) is refused: Add panics, naming it, and the index does not
// change.
func (ix *Index) Add(r Record) int {
	return ix.AddBatch([]Record{r})[0]
}

// AddBatch appends records in order, returning their ids. It is exactly Add
// once per record — the budget is checked after each — so how callers group
// records into batches never changes the resulting index. A batch holding a
// record that is not sorted and deduplicated (see NewRecord) is refused
// whole: AddBatch panics, naming the record's place in recs, before it adds
// any.
func (ix *Index) AddBatch(recs []Record) []int {
	base := ix.inner.NumRecords()
	ix.inner.AddRecords(recs)
	return idRange(base, len(recs))
}

// Len returns the number of indexed records.
func (ix *Index) Len() int { return ix.inner.NumRecords() }

// Record returns the indexed record with id i: a copy, decoded from the
// index's packed store on each call and the caller's to keep.
func (ix *Index) Record(i int) Record { return ix.inner.Record(i) }

// Stats describes the built sketch: the cross-engine EngineStats, of which an
// index leaves only NumHashes zero.
type Stats = EngineStats

// BuildCounters returns monotonic write-path work counters: element hash
// computations — keys are re-hashed rather than staged: in a build or a load
// a non-buffered element occurrence is hashed once to be counted and once
// more if its key is kept, selecting τ costs a build two per distinct
// element, and an insert hashes each occurrence once — and fixed-budget
// threshold shrinks performed. Safe to call concurrently with reads and
// writes; serving layers mirror these into their metrics registry at scrape
// time.
func (ix *Index) BuildCounters() (elementsHashed, shrinks uint64) {
	return ix.inner.BuildCounters()
}

// Stats reports the index's configuration and footprint.
func (ix *Index) Stats() Stats {
	return Stats{
		Engine:      ix.EngineName(),
		NumRecords:  ix.inner.NumRecords(),
		BufferBits:  ix.inner.BufferBits(),
		Tau:         ix.inner.Tau(),
		BudgetUnits: ix.inner.BudgetUnits(),
		UsedUnits:   ix.inner.UsedUnits(),
		SizeBytes:   ix.inner.SizeBytes(),
		BufferBytes: ix.inner.BufferSizeBytes(),
		SketchBytes: ix.inner.SketchSizeBytes(),
		RecordBytes: ix.inner.RecordSizeBytes(),
		IndexBytes:  ix.inner.IndexSizeBytes(),
	}
}
