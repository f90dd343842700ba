package gbkmv

import (
	"io"

	"gbkmv/internal/kmv"
)

// The "kmv" engine is the classic K-Minimum-Values baseline (Beyer et al.,
// SIGMOD 2007) the paper augments: an independent size-k sketch per record
// under one shared hash function, with k = ⌊budget/m⌋ — the equal allocation
// Theorem 1 proves optimal for containment search under a total space
// budget. Estimates use the KMV intersection estimator (Equations 8–10);
// search is a linear scan over the sketches. Its accuracy is bounded by
// min(k_Q, k_X), which is exactly the restriction G-KMV lifts.

func init() {
	registerStaged("kmv", buildKMVEngine, rebuildParser("kmv"))
	// Segmented collections must pin k against the whole collection before
	// the per-segment split, or each segment would derive its own k from its
	// own records and per-segment estimates would not be comparable.
	registerSegmentPinner("kmv", func(records []Record, opt EngineOptions) EngineOptions {
		if opt.NumHashes <= 0 {
			opt.NumHashes = kmv.EqualAllocation(opt.budget(totalElements(records)), len(records))
		}
		return opt
	})
}

type kmvEngine struct {
	opt      EngineOptions
	k        int // per-record sketch capacity
	budget   int
	records  []Record
	sketches []*kmv.Sketch
}

func buildKMVEngine(records []Record, opt EngineOptions) (Engine, error) {
	budget := opt.budget(totalElements(records))
	k := opt.NumHashes
	if k <= 0 {
		k = kmv.EqualAllocation(budget, len(records))
	}
	e := &kmvEngine{
		opt:      opt,
		k:        k,
		budget:   budget,
		records:  records,
		sketches: make([]*kmv.Sketch, len(records)),
	}
	for i, r := range records {
		e.sketches[i] = kmv.Build(r, k, opt.Seed)
	}
	return e, nil
}

func (e *kmvEngine) EngineName() string  { return "kmv" }
func (e *kmvEngine) Len() int            { return len(e.records) }
func (e *kmvEngine) Record(i int) Record { return e.records[i] }

func (e *kmvEngine) Add(r Record) int { return e.AddBatch([]Record{r})[0] }

// AddBatch appends records with the build-time sketch capacity k; the budget
// is not re-balanced across existing sketches (matching the engine's
// fixed-allocation design — rebuild for a fresh equal allocation).
func (e *kmvEngine) AddBatch(recs []Record) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = len(e.records)
		e.records = append(e.records, r)
		e.sketches = append(e.sketches, kmv.Build(r, e.k, e.opt.Seed))
	}
	return ids
}

func (e *kmvEngine) prepareSig(q Record) any { return kmv.Build(q, e.k, e.opt.Seed) }

func (e *kmvEngine) estimateSig(sig any, qSize, i int) float64 {
	return clamp01(kmv.ContainmentEstimate(sig.(*kmv.Sketch), e.sketches[i], qSize))
}

func (e *kmvEngine) searchSig(sig any, qSize int, threshold float64) []int {
	return searchByEstimate(len(e.records), threshold, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *kmvEngine) searchScoredSig(sig any, qSize int, threshold float64, limit int) ([]Scored, int) {
	return searchScoredByEstimate(len(e.records), threshold, limit, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *kmvEngine) topkSig(sig any, qSize, k int) []Scored {
	return topkByEstimate(len(e.records), k, nil, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *kmvEngine) Search(q Record, threshold float64) []int {
	return e.searchSig(e.prepareSig(q), len(q), threshold)
}

func (e *kmvEngine) SearchTopK(q Record, k int) []Scored {
	return e.topkSig(e.prepareSig(q), len(q), k)
}

func (e *kmvEngine) Estimate(q Record, i int) float64 {
	return e.estimateSig(e.prepareSig(q), len(q), i)
}

func (e *kmvEngine) PrepareQuery(q Record) PreparedQuery { return prepareOn(e, q) }

func (e *kmvEngine) EngineStats() EngineStats {
	used, bytes := 0, 0
	for _, s := range e.sketches {
		used += s.K()
		bytes += s.SizeBytes()
	}
	return EngineStats{
		Engine:      e.EngineName(),
		NumRecords:  len(e.records),
		SizeBytes:   bytes,
		BudgetUnits: e.budget,
		UsedUnits:   used,
		NumHashes:   e.k,
	}
}

// Save pins the *resolved* parameters (k, budget) into the stored options:
// both are derived from the collection at build time, and dynamic inserts
// grow the collection without re-deriving them, so a loader re-deriving from
// the grown records would build different sketches than the ones that
// answered queries before the snapshot.
func (e *kmvEngine) Save(w io.Writer) error {
	opt := e.opt
	opt.NumHashes = e.k
	opt.BudgetUnits = e.budget
	return saveRebuildable(w, opt, e.records)
}
