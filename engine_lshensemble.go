package gbkmv

import (
	"io"

	"gbkmv/internal/dataset"
	"gbkmv/internal/lshensemble"
	"gbkmv/internal/minhash"
)

// The "lshensemble" engine is LSH Ensemble (Zhu et al., VLDB 2016), the
// state-of-the-art approximate containment baseline the paper compares
// against: equal-depth size partitions, an LSH Forest per partition, and a
// per-partition Jaccard threshold derived from the partition's size upper
// bound. Search returns the ensemble's candidate set directly — the paper's
// LSH-E, which buys recall at the price of precision. The partitioning is a
// static structure, so dynamic inserts rebuild the ensemble (paid once per
// AddBatch); prefer the KMV-family engines for insert-heavy collections.

func init() {
	registerStaged("lshensemble", buildLSHEnsembleEngine, rebuildParser("lshensemble"))
}

type lshensembleEngine struct {
	opt     EngineOptions
	ens     *lshensemble.Ensemble
	records []Record
	// sigs retains the full per-record MinHash signatures: the ensemble's
	// forests store only banded prefixes, and re-signing a record on every
	// Estimate would cost O(NumHashes·|X|) per scored hit.
	sigs []minhash.Signature
}

func (e *lshensembleEngine) ensembleOptions() lshensemble.Options {
	return lshensemble.Options{
		NumHashes:     e.opt.NumHashes,
		NumPartitions: e.opt.NumPartitions,
		MaxBands:      e.opt.MaxBands,
		Seed:          e.opt.Seed,
	}
}

func buildLSHEnsembleEngine(records []Record, opt EngineOptions) (Engine, error) {
	if err := opt.checkSignatureLen(); err != nil {
		return nil, err
	}
	e := &lshensembleEngine{opt: opt, records: records}
	ens, err := lshensemble.Build(
		&dataset.Dataset{Records: records, Universe: maxUniverse(records)},
		e.ensembleOptions())
	if err != nil {
		return nil, err
	}
	e.ens = ens
	e.sigs = make([]minhash.Signature, len(records))
	for i, r := range records {
		e.sigs[i] = ens.Sign(r)
	}
	return e, nil
}

func (e *lshensembleEngine) EngineName() string  { return "lshensemble" }
func (e *lshensembleEngine) Len() int            { return len(e.records) }
func (e *lshensembleEngine) Record(i int) Record { return e.records[i] }

func (e *lshensembleEngine) Add(r Record) int { return e.AddBatch([]Record{r})[0] }

// AddBatch appends records and rebuilds the ensemble once for the batch: the
// equal-depth partitioning depends on the whole size distribution, so there
// is no sound incremental insert. The retained signatures only grow — the
// hash family is a pure function of (seed, NumHashes), so the rebuilt
// ensemble signs identically.
func (e *lshensembleEngine) AddBatch(recs []Record) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = len(e.records)
		e.records = append(e.records, r)
	}
	ens, err := lshensemble.Build(
		&dataset.Dataset{Records: e.records, Universe: maxUniverse(e.records)},
		e.ensembleOptions())
	if err != nil {
		// Build only fails on empty input or bad options; both are
		// impossible for a non-empty engine whose options already built once.
		panic("gbkmv: lshensemble rebuild: " + err.Error())
	}
	e.ens = ens
	for _, r := range recs {
		e.sigs = append(e.sigs, ens.Sign(r))
	}
	return ids
}

func (e *lshensembleEngine) prepareSig(q Record) any { return e.ens.Sign(q) }

func (e *lshensembleEngine) searchSig(sig any, qSize int, threshold float64) []int {
	return e.ens.QuerySigSized(sig.(minhash.Signature), qSize, threshold)
}

func (e *lshensembleEngine) estimateSig(sig any, qSize, i int) float64 {
	if qSize <= 0 {
		return 0
	}
	return clamp01(minhash.EstimateContainment(
		sig.(minhash.Signature), e.sigs[i], qSize, len(e.records[i])))
}

// searchScoredSig attaches estimates to the ensemble's candidate set (the
// full LSH-E result set), scoring only the hits surviving the limit cut.
func (e *lshensembleEngine) searchScoredSig(sig any, qSize int, threshold float64, limit int) ([]Scored, int) {
	return scoreCandidates(e.searchSig(sig, qSize, threshold), limit, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

// topkSig scores the candidate union at a low threshold — LSH-E has no
// native top-k, so the broad candidate set stands in for "anything with
// nonzero overlap".
func (e *lshensembleEngine) topkSig(sig any, qSize, k int) []Scored {
	if qSize <= 0 {
		return nil
	}
	cands := e.ens.QuerySigSized(sig.(minhash.Signature), qSize, 0.01)
	return topkByEstimate(len(e.records), k, cands, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *lshensembleEngine) Search(q Record, threshold float64) []int {
	return e.searchSig(e.prepareSig(q), len(q), threshold)
}

func (e *lshensembleEngine) SearchTopK(q Record, k int) []Scored {
	return e.topkSig(e.prepareSig(q), len(q), k)
}

func (e *lshensembleEngine) Estimate(q Record, i int) float64 {
	return e.estimateSig(e.prepareSig(q), len(q), i)
}

func (e *lshensembleEngine) PrepareQuery(q Record) PreparedQuery { return prepareOn(e, q) }

func (e *lshensembleEngine) EngineStats() EngineStats {
	return EngineStats{
		Engine:     e.EngineName(),
		NumRecords: len(e.records),
		// Forest bands plus the retained full signatures.
		SizeBytes: 8 * 2 * e.ens.SizeUnits(),
		UsedUnits: e.ens.SizeUnits(),
		NumHashes: e.ens.SizeUnits() / max(1, len(e.records)),
	}
}

func (e *lshensembleEngine) Save(w io.Writer) error { return saveRebuildable(w, e.opt, e.records) }
