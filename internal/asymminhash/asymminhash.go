// Package asymminhash implements asymmetric minwise hashing (Shrivastava &
// Li, WWW 2015), the containment-search baseline that preceded LSH Ensemble
// and that both the GB-KMV paper and Zhu et al. discuss (Section VI): since
// no LSH family exists for the asymmetric containment similarity, every
// *indexed* record is padded with shared dummy symbols z_1, z_2, ... up to
// the maximum record size M, while queries stay unpadded. The Jaccard
// similarity of the padded record with the query,
//
//	J(Q, P(X)) = |Q ∩ X| / (M + |Q| − |Q ∩ X|),
//
// is monotone in the overlap |Q ∩ X| for a fixed query, so standard MinHash
// LSH over the transformed sets retrieves high-containment records.
//
// Zhu et al. observed — and the GB-KMV paper repeats — that padding wrecks
// recall on skewed size distributions: a small record is mostly padding, so
// its signature is dominated by dummy symbols. The baselines experiment
// reproduces that effect against LSH-E and GB-KMV.
package asymminhash

import (
	"errors"
	"math"
	"sort"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/lshforest"
	"gbkmv/internal/minhash"
)

// Options configures the index.
type Options struct {
	NumHashes int // MinHash signature length (default 256)
	MaxBands  int // LSH Forest trees (default 32)
	Seed      uint64
}

func (o Options) withDefaults() Options {
	if o.NumHashes == 0 {
		o.NumHashes = 256
	}
	if o.MaxBands == 0 {
		o.MaxBands = 32
	}
	return o
}

// Index is the asymmetric minwise hashing index. Its forest is probed with
// the (b, r) of LSH Ensemble's tuner, which lshforest owns.
type Index struct {
	opt     Options
	gen     *minhash.Generator
	forest  *lshforest.Forest
	maxSize int // M, the padding target
	sizes   []int
	// padMin[i][j] is the minimum hash of functions i over the first j
	// padding symbols (padMin[i][0] = MaxUint64).
	padMin [][]uint64
}

// padBase offsets the dummy-symbol ids far beyond any real element id.
const padBase = uint64(1) << 62

// Build constructs the index over the dataset.
func Build(d *dataset.Dataset, opt Options) (*Index, error) {
	opt = opt.withDefaults()
	if opt.NumHashes <= 0 || opt.MaxBands <= 0 {
		return nil, errors.New("asymminhash: parameters must be positive")
	}
	if d == nil || len(d.Records) == 0 {
		return nil, errors.New("asymminhash: empty dataset")
	}
	ix := &Index{
		opt:   opt,
		gen:   minhash.NewGenerator(opt.NumHashes, opt.Seed),
		sizes: make([]int, len(d.Records)),
	}
	for i, r := range d.Records {
		ix.sizes[i] = len(r)
		if len(r) > ix.maxSize {
			ix.maxSize = len(r)
		}
	}
	// Prefix minima of the padding symbols' hashes, per hash function. The
	// pad symbols are hashed with their own seeded functions; because pads
	// never occur in queries and are identical across records, any uniform
	// assignment of hash values to them yields the same collision law as
	// extending each h_i over the pad symbols, so the padded signature is a
	// faithful minwise signature of P(X).
	ix.padMin = make([][]uint64, opt.NumHashes)
	for i := range ix.padMin {
		row := make([]uint64, ix.maxSize+1)
		row[0] = math.MaxUint64
		for j := 1; j <= ix.maxSize; j++ {
			h := hash.Hash64(hash.Element(padBase+uint64(j)), hash.Mix64(uint64(i)+opt.Seed))
			if h < row[j-1] {
				row[j] = h
			} else {
				row[j] = row[j-1]
			}
		}
		ix.padMin[i] = row
	}

	forest, err := lshforest.New(lshforest.Shape(opt.NumHashes, opt.MaxBands))
	if err != nil {
		return nil, err
	}
	for id, r := range d.Records {
		forest.Add(id, ix.paddedSignature(r))
	}
	forest.Index()
	ix.forest = forest
	return ix, nil
}

// paddedSignature signs P(X) = X ∪ {z_1..z_{M−|X|}} without materializing
// the padding: position i is min(minhash_i(X), padMin[i][M−|X|]).
func (ix *Index) paddedSignature(r dataset.Record) minhash.Signature {
	sig := ix.gen.Sign(r)
	pad := ix.maxSize - len(r)
	if pad < 0 {
		pad = 0
	}
	for i := range sig {
		if pm := ix.padMin[i][pad]; pm < sig[i] {
			sig[i] = pm
		}
	}
	return sig
}

// jaccardThreshold converts the containment threshold into the padded-space
// Jaccard threshold: s* = t*·q / (M + q − t*·q).
func (ix *Index) jaccardThreshold(tstar float64, qSize int) float64 {
	num := tstar * float64(qSize)
	den := float64(ix.maxSize) + float64(qSize) - num
	if den <= 0 {
		return 1
	}
	s := num / den
	if s > 1 {
		s = 1
	}
	return s
}

// Query returns candidate record ids for containment threshold tstar,
// ascending. Like LSH-E, candidates are returned unverified.
func (ix *Index) Query(q dataset.Record, tstar float64) []int {
	if len(q) == 0 {
		return nil
	}
	b, r := ix.forest.OptimalParams(ix.jaccardThreshold(tstar, len(q)))
	// The query is NOT padded: that is the asymmetry.
	sig := ix.gen.Sign(q)
	theta := tstar * float64(len(q))
	out := []int{}
	for _, id := range ix.forest.Query(sig, b, r) {
		// Size filter only; no verification (candidate semantics).
		if float64(ix.sizes[id]) >= theta {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}
