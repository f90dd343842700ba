package gbkmv

import "gbkmv/internal/kmv"

// The "kmv" engine is the classic K-Minimum-Values baseline (Beyer et al.,
// SIGMOD 2007) the paper augments: an independent size-k sketch per record
// under one shared hash function, with k = ⌊budget/m⌋ — the equal allocation
// Theorem 1 proves optimal for containment search under a total space
// budget. Estimates use the KMV intersection estimator (Equations 8–10);
// search is a linear scan over the sketches. Its accuracy is bounded by
// min(k_Q, k_X), which is exactly the restriction G-KMV lifts.

func init() {
	registerBaseline("kmv",
		func(m, budget int, opt EngineOptions) EngineOptions {
			opt.BudgetUnits = budget
			if opt.NumHashes <= 0 {
				opt.NumHashes = kmv.EqualAllocation(opt.BudgetUnits, m)
			}
			return opt
		},
		func(opt EngineOptions) (backend, error) {
			return &kmvBackend{k: opt.NumHashes, budget: opt.BudgetUnits, seed: opt.Seed}, nil
		})
}

// kmvBackend sketches each record once, at the capacity k resolved when the
// engine was built: inserts do not re-balance the budget across existing
// sketches (rebuild for a fresh equal allocation).
type kmvBackend struct {
	scanAll
	k, budget int
	seed      uint64
	sketches  []*kmv.Sketch
}

func (b *kmvBackend) add(recs []Record, from int) error {
	for _, r := range recs[from:] {
		b.sketches = append(b.sketches, kmv.Build(r, b.k, b.seed))
	}
	return nil
}

func (b *kmvBackend) sign(q Record) any { return kmv.Build(q, b.k, b.seed) }

func (b *kmvBackend) estimate(sig any, qSize, i int) float64 {
	return clamp01(kmv.ContainmentEstimate(sig.(*kmv.Sketch), b.sketches[i], qSize))
}

func (b *kmvBackend) stats(st *EngineStats) {
	for _, s := range b.sketches {
		st.UsedUnits += s.K()
		st.SizeBytes += s.SizeBytes()
	}
	st.BudgetUnits = b.budget
	st.NumHashes = b.k
}
