// Package freqset implements an exact containment similarity search in the
// style of the token-set inverted indexes of Agrawal, Arasu & Kaushik
// (SIGMOD 2010) — the paper's second exact baseline ("FrequentSet",
// Section V-A). It is the classic ScanCount algorithm: a full inverted index
// from token to record ids; a query merges the lists of all its tokens,
// counts occurrences per record, and keeps records whose count reaches the
// overlap threshold ⌈t*·|Q|⌉.
//
// ScanCount touches every posting of every query token, so its cost grows
// with record/query length — the behavior Fig. 19(b) of the paper contrasts
// with the sketch-based search.
package freqset

import (
	"errors"
	"math"
	"sort"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// Index is the inverted-index exact search structure.
type Index struct {
	lists map[hash.Element][]int32
	sizes []int
}

// Build constructs the index.
func Build(d *dataset.Dataset) (*Index, error) {
	if d == nil || len(d.Records) == 0 {
		return nil, errors.New("freqset: empty dataset")
	}
	ix := &Index{
		lists: make(map[hash.Element][]int32),
		sizes: make([]int, len(d.Records)),
	}
	for i, r := range d.Records {
		ix.sizes[i] = len(r)
		for _, e := range r {
			ix.lists[e] = append(ix.lists[e], int32(i))
		}
	}
	return ix, nil
}

// Search returns, exactly, every record id with C(Q, X) ≥ tstar, ascending.
func (ix *Index) Search(q dataset.Record, tstar float64) []int {
	if len(q) == 0 {
		return nil
	}
	if tstar <= 0 {
		out := make([]int, len(ix.sizes))
		for i := range out {
			out[i] = i
		}
		return out
	}
	c := int(math.Ceil(tstar*float64(len(q)) - 1e-9))
	if c < 1 {
		c = 1
	}
	if c > len(q) {
		return nil
	}
	counts := make(map[int32]int)
	for _, e := range q {
		for _, id := range ix.lists[e] {
			counts[id]++
		}
	}
	out := []int{}
	for id, n := range counts {
		if n >= c {
			out = append(out, int(id))
		}
	}
	sort.Ints(out)
	return out
}
