package gbkmv

import (
	"io"

	"gbkmv/internal/minhash"
)

// The "minhash" engine is the per-record MinHash-LSH estimator of Section
// III-B: k independent hash functions, containment recovered from the
// collision-fraction Jaccard estimate and the true record sizes via the
// containment↔Jaccard transformation (Equations 12 and 14). Search is a
// linear signature scan. Unlike the KMV family its signature size is fixed
// per record regardless of record size, so it overspends on small records
// and truncates large ones — the size-skew weakness the paper dissects.

func init() {
	registerStaged("minhash", buildMinhashEngine, rebuildParser("minhash"))
	// Pin the signature length against the whole collection before the
	// per-segment split (see the kmv pinner).
	registerSegmentPinner("minhash", func(records []Record, opt EngineOptions) EngineOptions {
		opt.NumHashes, _ = minhashK(opt, records)
		return opt
	})
}

type minhashEngine struct {
	opt     EngineOptions
	gen     *minhash.Generator
	k       int
	budget  int
	records []Record
	sigs    []minhash.Signature
}

// minhashDefaultK bounds the derived signature length: below 8 the estimator
// is noise, above 512 signing dominates everything else.
func minhashK(opt EngineOptions, records []Record) (k, budget int) {
	budget = opt.budget(totalElements(records))
	k = opt.NumHashes
	if k <= 0 {
		// Spend the same per-record unit budget as the KMV family: one unit
		// = one stored hash value.
		k = budget / len(records)
		if k < 8 {
			k = 8
		}
		if k > 512 {
			k = 512
		}
	}
	return k, budget
}

func buildMinhashEngine(records []Record, opt EngineOptions) (Engine, error) {
	if err := opt.checkSignatureLen(); err != nil {
		return nil, err
	}
	k, budget := minhashK(opt, records)
	e := &minhashEngine{
		opt:     opt,
		gen:     minhash.NewGenerator(k, opt.Seed),
		k:       k,
		budget:  budget,
		records: records,
		sigs:    make([]minhash.Signature, len(records)),
	}
	for i, r := range records {
		e.sigs[i] = e.gen.Sign(r)
	}
	return e, nil
}

func (e *minhashEngine) EngineName() string  { return "minhash" }
func (e *minhashEngine) Len() int            { return len(e.records) }
func (e *minhashEngine) Record(i int) Record { return e.records[i] }

func (e *minhashEngine) Add(r Record) int { return e.AddBatch([]Record{r})[0] }

func (e *minhashEngine) AddBatch(recs []Record) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = len(e.records)
		e.records = append(e.records, r)
		e.sigs = append(e.sigs, e.gen.Sign(r))
	}
	return ids
}

func (e *minhashEngine) prepareSig(q Record) any { return e.gen.Sign(q) }

func (e *minhashEngine) estimateSig(sig any, qSize, i int) float64 {
	return clamp01(minhash.EstimateContainment(
		sig.(minhash.Signature), e.sigs[i], qSize, len(e.records[i])))
}

func (e *minhashEngine) searchSig(sig any, qSize int, threshold float64) []int {
	return searchByEstimate(len(e.records), threshold, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *minhashEngine) searchScoredSig(sig any, qSize int, threshold float64, limit int) ([]Scored, int) {
	return searchScoredByEstimate(len(e.records), threshold, limit, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *minhashEngine) topkSig(sig any, qSize, k int) []Scored {
	return topkByEstimate(len(e.records), k, nil, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *minhashEngine) Search(q Record, threshold float64) []int {
	return e.searchSig(e.prepareSig(q), len(q), threshold)
}

func (e *minhashEngine) SearchTopK(q Record, k int) []Scored {
	return e.topkSig(e.prepareSig(q), len(q), k)
}

func (e *minhashEngine) Estimate(q Record, i int) float64 {
	return e.estimateSig(e.prepareSig(q), len(q), i)
}

func (e *minhashEngine) PrepareQuery(q Record) PreparedQuery { return prepareOn(e, q) }

func (e *minhashEngine) EngineStats() EngineStats {
	return EngineStats{
		Engine:      e.EngineName(),
		NumRecords:  len(e.records),
		SizeBytes:   8 * e.k * len(e.records),
		BudgetUnits: e.budget,
		UsedUnits:   e.k * len(e.records),
		NumHashes:   e.k,
	}
}

// Save pins the resolved (k, budget) into the stored options, exactly like
// the kmv engine: a loader must reproduce the signatures that answered
// queries before the snapshot, not re-derive k from the grown collection.
func (e *minhashEngine) Save(w io.Writer) error {
	opt := e.opt
	opt.NumHashes = e.k
	opt.BudgetUnits = e.budget
	return saveRebuildable(w, opt, e.records)
}
