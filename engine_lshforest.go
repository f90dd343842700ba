package gbkmv

import (
	"math"

	"gbkmv/internal/lshforest"
	"gbkmv/internal/minhash"
)

// The "lshforest" engine is the LSH Forest baseline (Bawa, Condie & Ganesan,
// WWW 2005): l prefix trees over bands of one MinHash signature, probed at a
// query-time depth. The containment threshold converts to a Jaccard
// threshold through the collection's maximum record size (the conservative
// upper bound), and the probe depth is the deepest one whose banding
// collision probability at that Jaccard still clears a high-recall floor —
// so the candidate set leans towards recall. With skewed record sizes that
// conversion puts every probe at depth 1 and the candidates are most of the
// collection, so Search keeps only those whose estimate from the retained
// full signatures reaches the threshold.

func init() {
	registerBaseline("lshforest", nil, func(opt EngineOptions) (backend, error) {
		if err := opt.checkSignatureLen(); err != nil {
			return nil, err
		}
		const l = 32 // trees
		numHashes := opt.NumHashes
		if numHashes <= 0 {
			numHashes = 128
		}
		f, err := lshforest.New(l, max(numHashes/l, 1))
		if err != nil {
			return nil, err
		}
		return &lshforestBackend{gen: minhash.NewGenerator(f.NumHashes(), opt.Seed), forest: f}, nil
	})
}

// forestRecallFloor is the minimum banding collision probability a probe
// depth must keep at the converted Jaccard threshold; deeper probes prune
// harder but start missing true results.
const forestRecallFloor = 0.9

// lshforestBackend signs with its own generator, and retains the full
// signatures beside the forest: they verify candidates and score Estimate and
// TopK.
type lshforestBackend struct {
	signatures
	gen     *minhash.Generator
	forest  *lshforest.Forest
	maxSize int
}

// add inserts the new records and re-sorts the forest's trees once for the
// batch (lshforest.Index is a full sort).
func (b *lshforestBackend) add(recs []Record, from int) error {
	b.records = recs
	for i := from; i < len(recs); i++ {
		sig := b.gen.Sign(recs[i])
		b.sigs = append(b.sigs, sig)
		b.forest.Add(i, sig)
		b.maxSize = max(b.maxSize, len(recs[i]))
	}
	b.forest.Index()
	return nil
}

func (b *lshforestBackend) sign(q Record) any { return b.gen.Sign(q) }

// probeDepth picks the deepest prefix depth whose collision probability
// 1−(1−s^r)^l at Jaccard s stays above the recall floor.
func (b *lshforestBackend) probeDepth(s float64) int {
	l := float64(b.forest.L())
	for r := b.forest.MaxDepth(); r > 1; r-- {
		if 1-math.Pow(1-math.Pow(s, float64(r)), l) >= forestRecallFloor {
			return r
		}
	}
	return 1
}

// candidates probes every tree at the depth the converted threshold allows;
// the caller verifies them against the full signatures.
func (b *lshforestBackend) candidates(sig any, qSize int, threshold float64) ([]int, bool, bool) {
	if qSize <= 0 {
		return nil, false, false
	}
	if threshold <= 0 {
		return nil, true, false
	}
	s := minhash.JaccardFromContainment(threshold, b.maxSize, qSize)
	return b.forest.Query(sig.(minhash.Signature), b.forest.L(), b.probeDepth(s)), false, false
}

// topkCandidates is the broadest candidate set (a depth-1 probe of every
// tree) rather than the whole collection, keeping top-k sublinear like the
// forest's search.
func (b *lshforestBackend) topkCandidates(sig any, qSize int) ([]int, bool) {
	if qSize <= 0 {
		return nil, false
	}
	return b.forest.Query(sig.(minhash.Signature), b.forest.L(), 1), false
}

func (b *lshforestBackend) stats(st *EngineStats) {
	// Bands plus the retained full signatures.
	st.UsedUnits = b.forest.SizeUnits()
	st.SizeBytes = 8 * (st.UsedUnits + len(b.records)*b.forest.NumHashes())
	st.NumHashes = b.forest.NumHashes()
}
