package gbkmv

import (
	"io"
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
	registerStaged("lshforest", buildLSHForestEngine, rebuildParser("lshforest"))
}

// forestRecallFloor is the minimum banding collision probability a probe
// depth must keep at the converted Jaccard threshold; deeper probes prune
// harder but start missing true results.
const forestRecallFloor = 0.9

type lshforestEngine struct {
	opt     EngineOptions
	forest  *lshforest.Forest
	records []Record
	sigs    []minhash.Signature // full signatures: candidate verification, Estimate, TopK
	maxSize int
}

func buildLSHForestEngine(records []Record, opt EngineOptions) (Engine, error) {
	if err := opt.checkSignatureLen(); err != nil {
		return nil, err
	}
	l := opt.MaxBands
	if l <= 0 {
		l = 32
	}
	numHashes := opt.NumHashes
	if numHashes <= 0 {
		numHashes = 128
	}
	depth := numHashes / l
	if depth < 1 {
		depth = 1
	}
	f, err := lshforest.New(l, depth, opt.Seed)
	if err != nil {
		return nil, err
	}
	e := &lshforestEngine{
		opt:     opt,
		forest:  f,
		records: records,
		sigs:    make([]minhash.Signature, len(records)),
	}
	for i, r := range records {
		sig := f.Sign(r)
		e.sigs[i] = sig
		f.Add(i, sig)
		if len(r) > e.maxSize {
			e.maxSize = len(r)
		}
	}
	f.Index()
	return e, nil
}

func (e *lshforestEngine) EngineName() string  { return "lshforest" }
func (e *lshforestEngine) Len() int            { return len(e.records) }
func (e *lshforestEngine) Record(i int) Record { return e.records[i] }

func (e *lshforestEngine) Add(r Record) int { return e.AddBatch([]Record{r})[0] }

// AddBatch appends records and re-sorts the forest's trees once per batch
// (lshforest.Index is a full sort; batching keeps it off the per-record
// path).
func (e *lshforestEngine) AddBatch(recs []Record) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		id := len(e.records)
		ids[i] = id
		sig := e.forest.Sign(r)
		e.records = append(e.records, r)
		e.sigs = append(e.sigs, sig)
		e.forest.Add(id, sig)
		if len(r) > e.maxSize {
			e.maxSize = len(r)
		}
	}
	e.forest.Index()
	return ids
}

func (e *lshforestEngine) prepareSig(q Record) any { return e.forest.Sign(q) }

// probeDepth picks the deepest prefix depth whose collision probability
// 1−(1−s^r)^l at Jaccard s stays above the recall floor.
func (e *lshforestEngine) probeDepth(s float64) int {
	l := float64(e.forest.L())
	depth := 1
	for r := e.forest.MaxDepth(); r >= 1; r-- {
		p := 1 - math.Pow(1-math.Pow(s, float64(r)), l)
		if p >= forestRecallFloor {
			depth = r
			break
		}
	}
	return depth
}

// candidates probes every tree at the depth the converted threshold allows.
func (e *lshforestEngine) candidates(sig any, qSize int, threshold float64) []int {
	if qSize <= 0 {
		return nil
	}
	if threshold <= 0 {
		out := make([]int, len(e.records))
		for i := range out {
			out[i] = i
		}
		return out
	}
	s := minhash.JaccardFromContainment(threshold, e.maxSize, qSize)
	return e.forest.Query(sig.(minhash.Signature), e.forest.L(), e.probeDepth(s))
}

func (e *lshforestEngine) estimateSig(sig any, qSize, i int) float64 {
	return clamp01(minhash.EstimateContainment(
		sig.(minhash.Signature), e.sigs[i], qSize, len(e.records[i])))
}

// searchScoredSig verifies the forest's candidates: a candidate is a hit
// only if its estimate reaches the threshold, and that estimate is its score.
// Candidates come in ascending id order, so truncating at limit while
// counting the rest keeps the hits/total contract exact.
func (e *lshforestEngine) searchScoredSig(sig any, qSize int, threshold float64, limit int) ([]Scored, int) {
	hits, total := []Scored{}, 0
	for _, i := range e.candidates(sig, qSize, threshold) {
		if s := e.estimateSig(sig, qSize, i); s >= threshold {
			total++
			if limit <= 0 || len(hits) < limit {
				hits = append(hits, Scored{ID: i, Score: s})
			}
		}
	}
	return hits, total
}

func (e *lshforestEngine) searchSig(sig any, qSize int, threshold float64) []int {
	hits, _ := e.searchScoredSig(sig, qSize, threshold, 0)
	ids := make([]int, len(hits))
	for i, h := range hits {
		ids[i] = h.ID
	}
	return ids
}

// topkSig scores the broadest candidate set (depth-1 probe of every tree)
// rather than the whole collection, keeping top-k sublinear like the
// forest's search.
func (e *lshforestEngine) topkSig(sig any, qSize, k int) []Scored {
	if qSize <= 0 {
		return nil
	}
	cands := e.forest.Query(sig.(minhash.Signature), e.forest.L(), 1)
	return topkByEstimate(len(e.records), k, cands, func(i int) float64 {
		return e.estimateSig(sig, qSize, i)
	})
}

func (e *lshforestEngine) Search(q Record, threshold float64) []int {
	return e.searchSig(e.prepareSig(q), len(q), threshold)
}

func (e *lshforestEngine) SearchTopK(q Record, k int) []Scored {
	return e.topkSig(e.prepareSig(q), len(q), k)
}

func (e *lshforestEngine) Estimate(q Record, i int) float64 {
	return e.estimateSig(e.prepareSig(q), len(q), i)
}

func (e *lshforestEngine) PrepareQuery(q Record) PreparedQuery { return prepareOn(e, q) }

func (e *lshforestEngine) EngineStats() EngineStats {
	return EngineStats{
		Engine:     e.EngineName(),
		NumRecords: len(e.records),
		// Bands plus the retained full signatures.
		SizeBytes: 8 * (e.forest.SizeUnits() + len(e.records)*e.forest.NumHashes()),
		UsedUnits: e.forest.SizeUnits(),
		NumHashes: e.forest.NumHashes(),
	}
}

func (e *lshforestEngine) Save(w io.Writer) error { return saveRebuildable(w, e.opt, e.records) }
