// Package lshforest implements an LSH Forest (Bawa, Condie & Ganesan, WWW
// 2005) over MinHash signatures: l prefix trees, each built on a distinct
// band of the signature, queried at a tunable depth. It is the indexing
// substrate of the LSH Ensemble baseline — LSH-E picks, per query, how many
// trees b ≤ l and what prefix depth r ≤ maxDepth to probe, which is
// equivalent to banding-based MinHash LSH with query-time (b, r).
//
// Each "tree" is stored as a lexicographically sorted slice of signature
// bands; probing a prefix of depth r is a binary-search range scan, which is
// the standard flat-array realization of an LSH Forest prefix tree.
//
// A forest indexes the signatures it is handed and makes none: its caller
// owns the signer. The package also owns LSH-E's banding tuner (params.go),
// the (b, r) a forest of a given shape is probed with at a Jaccard threshold.
package lshforest

import (
	"errors"
	"sort"

	"gbkmv/internal/minhash"
)

// Forest is an LSH Forest over l bands of depth maxDepth each.
type Forest struct {
	l        int
	maxDepth int
	params   *paramTable // the tuner's table for (l, maxDepth), shared by every forest of the shape
	trees    []tree
	n        int // number of indexed records
}

// tree is one band: entries sorted lexicographically by their hash tuple.
type tree struct {
	keys [][]uint64 // keys[i] has length maxDepth
	ids  []int32
}

// New creates a forest with l trees of depth maxDepth, over MinHash
// signatures of l·maxDepth hash values.
func New(l, maxDepth int) (*Forest, error) {
	if l <= 0 || maxDepth <= 0 {
		return nil, errors.New("lshforest: l and maxDepth must be positive")
	}
	return &Forest{
		l:        l,
		maxDepth: maxDepth,
		params:   tableFor(l, maxDepth),
		trees:    make([]tree, l),
	}, nil
}

// L returns the number of trees (maximum bands).
func (f *Forest) L() int { return f.l }

// MaxDepth returns the per-tree depth (maximum rows per band).
func (f *Forest) MaxDepth() int { return f.maxDepth }

// NumHashes returns the total signature length l·maxDepth.
func (f *Forest) NumHashes() int { return f.l * f.maxDepth }

// Len returns the number of indexed records.
func (f *Forest) Len() int { return f.n }

// Add inserts a record's signature under the given id. Index must be called
// before Query once all insertions are done.
func (f *Forest) Add(id int, sig minhash.Signature) {
	for t := 0; t < f.l; t++ {
		band := make([]uint64, f.maxDepth)
		copy(band, sig[t*f.maxDepth:(t+1)*f.maxDepth])
		f.trees[t].keys = append(f.trees[t].keys, band)
		f.trees[t].ids = append(f.trees[t].ids, int32(id))
	}
	f.n++
}

// Index sorts all trees; it must be called after the last Add and before the
// first Query.
func (f *Forest) Index() {
	for t := range f.trees {
		tr := &f.trees[t]
		order := make([]int, len(tr.keys))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return lessKey(tr.keys[order[a]], tr.keys[order[b]])
		})
		keys := make([][]uint64, len(order))
		ids := make([]int32, len(order))
		for i, o := range order {
			keys[i] = tr.keys[o]
			ids[i] = tr.ids[o]
		}
		tr.keys, tr.ids = keys, ids
	}
}

func lessKey(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// prefixCompare compares key against the first depth values of probe.
func prefixCompare(key, probe []uint64, depth int) int {
	for i := 0; i < depth; i++ {
		switch {
		case key[i] < probe[i]:
			return -1
		case key[i] > probe[i]:
			return 1
		}
	}
	return 0
}

// Query probes the first b trees at prefix depth r and returns the ids of
// all records that collide with the query signature in at least one probed
// tree. b is clamped to [1, L] and r to [1, MaxDepth].
func (f *Forest) Query(sig minhash.Signature, b, r int) []int {
	if b < 1 {
		b = 1
	}
	if b > f.l {
		b = f.l
	}
	if r < 1 {
		r = 1
	}
	if r > f.maxDepth {
		r = f.maxDepth
	}
	seen := make(map[int32]struct{})
	for t := 0; t < b; t++ {
		tr := &f.trees[t]
		probe := sig[t*f.maxDepth : (t+1)*f.maxDepth]
		lo := sort.Search(len(tr.keys), func(i int) bool {
			return prefixCompare(tr.keys[i], probe, r) >= 0
		})
		for i := lo; i < len(tr.keys) && prefixCompare(tr.keys[i], probe, r) == 0; i++ {
			seen[tr.ids[i]] = struct{}{}
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, int(id))
	}
	sort.Ints(out)
	return out
}

// SizeUnits returns the index size in signature units (one stored hash value
// = one unit), the accounting shared with the GB-KMV budget.
func (f *Forest) SizeUnits() int { return f.n * f.NumHashes() }
