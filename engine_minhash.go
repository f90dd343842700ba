package gbkmv

import "gbkmv/internal/minhash"

// The "minhash" engine is the per-record MinHash-LSH estimator of Section
// III-B: k independent hash functions, containment recovered from the
// collision-fraction Jaccard estimate and the true record sizes via the
// containment↔Jaccard transformation (Equations 12 and 14). Search is a
// linear signature scan. Unlike the KMV family its signature size is fixed
// per record regardless of record size, so it overspends on small records
// and truncates large ones — the size-skew weakness the paper dissects.

func init() {
	registerBaseline("minhash",
		// The default signature length spends the same per-record unit budget
		// as the KMV family (one unit = one stored hash value), bounded: below
		// 8 the estimator is noise, above 512 signing dominates everything
		// else.
		func(m, budget int, opt EngineOptions) EngineOptions {
			opt.BudgetUnits = budget
			if opt.NumHashes <= 0 {
				opt.NumHashes = min(max(opt.BudgetUnits/m, 8), 512)
			}
			return opt
		},
		func(opt EngineOptions) (backend, error) {
			if err := opt.checkSignatureLen(); err != nil {
				return nil, err
			}
			return &minhashBackend{gen: minhash.NewGenerator(opt.NumHashes, opt.Seed), budget: opt.BudgetUnits}, nil
		})
}

type minhashBackend struct {
	scanAll
	signatures
	gen    *minhash.Generator
	budget int
}

func (b *minhashBackend) add(recs []Record, from int) error {
	b.records = recs
	for _, r := range recs[from:] {
		b.sigs = append(b.sigs, b.gen.Sign(r))
	}
	return nil
}

func (b *minhashBackend) sign(q Record) any { return b.gen.Sign(q) }

func (b *minhashBackend) stats(st *EngineStats) {
	st.UsedUnits = b.gen.K() * len(b.sigs)
	st.SizeBytes = 8 * st.UsedUnits
	st.BudgetUnits = b.budget
	st.NumHashes = b.gen.K()
}
