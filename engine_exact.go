package gbkmv

import (
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
	registerBaseline("exact", nil, func(EngineOptions) (backend, error) { return &exactBackend{}, nil })
}

type exactBackend struct {
	pp      *ppjoin.Index
	records []Record
}

func (b *exactBackend) add(recs []Record, _ int) error {
	pp, err := ppjoin.Build(&dataset.Dataset{Records: recs, Universe: maxUniverse(recs)})
	if err != nil {
		return err
	}
	b.pp, b.records = pp, recs
	return nil
}

// sign is the record itself: exact search needs no signature.
func (b *exactBackend) sign(q Record) any { return q }

func (b *exactBackend) estimate(sig any, qSize, i int) float64 {
	if qSize <= 0 {
		return 0
	}
	return float64(sig.(Record).IntersectSize(b.records[i])) / float64(qSize)
}

func (b *exactBackend) candidates(sig any, qSize int, threshold float64) ([]int, bool, bool) {
	q := sig.(Record)
	if threshold <= 0 {
		return nil, true, true
	}
	if qSize <= 0 || len(q) == 0 {
		return nil, false, true
	}
	// The size override maps onto the native threshold: the overlap bound is
	// c = ⌈t·|Q|⌉, and ppjoin derives c from len(q), so scale t by
	// qSize/len(q) — the products, and hence c, are identical.
	return b.pp.Search(q, threshold*float64(qSize)/float64(len(q))), false, true
}

// topkCandidates is every record: a prefix-filter probe at a low threshold
// is not "anything that overlaps" — once |Q| > 100 its overlap bound is above
// 1 and it misses the records sharing a single element.
func (b *exactBackend) topkCandidates(any, int) ([]int, bool) { return nil, true }

// stats reports no sketch budget: the index is exact and its size tracks the
// data.
func (b *exactBackend) stats(st *EngineStats) { st.SizeBytes = b.pp.SizeBytes() }
