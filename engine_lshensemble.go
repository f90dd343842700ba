package gbkmv

import (
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
	registerBaseline("lshensemble", nil, func(opt EngineOptions) (backend, error) {
		if err := opt.checkSignatureLen(); err != nil {
			return nil, err
		}
		return &lshensembleBackend{opt: lshensemble.Options{NumHashes: opt.NumHashes, Seed: opt.Seed}}, nil
	})
}

// lshensembleBackend estimates from the ensemble's full per-record
// signatures: its forests store only banded prefixes, and re-signing a record
// on every estimate would cost O(NumHashes·|X|) per scored hit.
type lshensembleBackend struct {
	signatures
	opt lshensemble.Options
	ens *lshensemble.Ensemble
}

// add rebuilds the ensemble: the equal-depth partitioning depends on the
// whole size distribution, so there is no sound incremental insert. The
// signatures only grow — the hash family is a pure function of (seed,
// NumHashes) — so the rebuild is handed the ones it has and signs only the
// new records, once each.
func (b *lshensembleBackend) add(recs []Record, _ int) error {
	ens, err := lshensemble.Build(&dataset.Dataset{Records: recs, Universe: maxUniverse(recs)}, b.opt, b.sigs)
	if err != nil {
		return err
	}
	b.ens, b.records, b.sigs = ens, recs, ens.Signatures()
	return nil
}

func (b *lshensembleBackend) sign(q Record) any { return b.ens.Sign(q) }

// candidates is the ensemble's candidate set, final: LSH-E as the paper
// defines it returns its partitions' candidates unverified.
func (b *lshensembleBackend) candidates(sig any, qSize int, threshold float64) ([]int, bool, bool) {
	return b.ens.QuerySigSized(sig.(minhash.Signature), qSize, threshold), false, true
}

// topkCandidates is the candidate union at a low threshold — LSH-E has no
// native top-k, so the broad candidate set stands in for "anything with
// nonzero overlap".
func (b *lshensembleBackend) topkCandidates(sig any, qSize int) ([]int, bool) {
	if qSize <= 0 {
		return nil, false
	}
	return b.ens.QuerySigSized(sig.(minhash.Signature), qSize, 0.01), false
}

func (b *lshensembleBackend) stats(st *EngineStats) {
	// Forest bands plus the retained full signatures.
	st.UsedUnits = b.ens.SizeUnits()
	st.SizeBytes = 8 * 2 * st.UsedUnits
	st.NumHashes = st.UsedUnits / max(1, len(b.records))
}
