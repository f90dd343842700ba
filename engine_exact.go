package gbkmv

import (
	"io"

	"gbkmv/internal/dataset"
	"gbkmv/internal/ppjoin"
)

// The "exact" engine answers containment search exactly, with the
// prefix-filtered inverted index of the PPjoin family (the paper's exact
// baseline, Section V-A). It is the reference every approximate engine is
// measured against — the cross-engine tests assert per-engine recall floors
// relative to it — and the right backend when the collection is small enough
// that sketching buys nothing. The token-frequency ordering its prefix
// filter depends on is global, so dynamic inserts rebuild the index (paid
// once per AddBatch).

func init() {
	registerStaged("exact", buildExactEngine, rebuildParser("exact"))
}

type exactEngine struct {
	opt     EngineOptions
	pp      *ppjoin.Index
	records []Record
}

func buildExactEngine(records []Record, opt EngineOptions) (Engine, error) {
	pp, err := ppjoin.Build(&dataset.Dataset{Records: records, Universe: maxUniverse(records)})
	if err != nil {
		return nil, err
	}
	return &exactEngine{opt: opt, pp: pp, records: records}, nil
}

func (e *exactEngine) EngineName() string  { return "exact" }
func (e *exactEngine) Len() int            { return len(e.records) }
func (e *exactEngine) Record(i int) Record { return e.records[i] }

func (e *exactEngine) Add(r Record) int { return e.AddBatch([]Record{r})[0] }

// AddBatch appends records and rebuilds the prefix-filter index once for the
// batch (its global frequency ordering cannot be patched incrementally).
func (e *exactEngine) AddBatch(recs []Record) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = len(e.records)
		e.records = append(e.records, r)
	}
	pp, err := ppjoin.Build(&dataset.Dataset{Records: e.records, Universe: maxUniverse(e.records)})
	if err != nil {
		panic("gbkmv: exact rebuild: " + err.Error())
	}
	e.pp = pp
	return ids
}

// prepareSig is the record itself: exact search needs no signature.
func (e *exactEngine) prepareSig(q Record) any { return q }

func (e *exactEngine) searchSig(sig any, qSize int, threshold float64) []int {
	q := sig.(Record)
	if threshold <= 0 {
		out := make([]int, len(e.records))
		for i := range out {
			out[i] = i
		}
		return out
	}
	if qSize <= 0 || len(q) == 0 {
		return []int{}
	}
	// The size override maps onto the native threshold: the overlap bound is
	// c = ⌈t·|Q|⌉, and ppjoin derives c from len(q), so scale t by
	// qSize/len(q) — the products, and hence c, are identical.
	return e.pp.Search(q, threshold*float64(qSize)/float64(len(q)))
}

func (e *exactEngine) estimateSig(sig any, qSize, i int) float64 {
	q := sig.(Record)
	if qSize <= 0 {
		return 0
	}
	return float64(q.IntersectSize(e.records[i])) / float64(qSize)
}

func (e *exactEngine) searchScoredSig(sig any, qSize int, threshold float64, limit int) ([]Scored, int) {
	return scoreCandidates(e.searchSig(sig, qSize, threshold), limit, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *exactEngine) topkSig(sig any, qSize, k int) []Scored {
	return topkByEstimate(len(e.records), k, nil, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *exactEngine) Search(q Record, threshold float64) []int {
	return e.searchSig(q, len(q), threshold)
}

func (e *exactEngine) SearchTopK(q Record, k int) []Scored {
	return e.topkSig(q, len(q), k)
}

func (e *exactEngine) Estimate(q Record, i int) float64 {
	return e.estimateSig(q, len(q), i)
}

func (e *exactEngine) PrepareQuery(q Record) PreparedQuery { return prepareOn(e, q) }

func (e *exactEngine) EngineStats() EngineStats {
	return EngineStats{
		Engine:     e.EngineName(),
		NumRecords: len(e.records),
		SizeBytes:  e.pp.SizeBytes(),
		// No sketch budget: the index is exact and its size tracks the data.
	}
}

func (e *exactEngine) Save(w io.Writer) error { return saveRebuildable(w, e.opt, e.records) }
