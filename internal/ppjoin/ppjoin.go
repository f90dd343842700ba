// Package ppjoin implements an exact containment similarity search derived
// from PPjoin+ (Xiao et al., TODS 2011), the prefix-filtering family the
// GB-KMV paper extends to containment search as its exact baseline
// ("PPjoin*", Section V-A).
//
// Containment search C(Q, X) ≥ t* is equivalent to an overlap threshold
// |Q ∩ X| ≥ c with c = ⌈t*·|Q|⌉ (Equation 23). Because c depends only on
// the query, the classic prefix filter applies directly: order every
// record's tokens by ascending global frequency (rare tokens first); any X
// with overlap ≥ c must share at least one token with the first
// |Q| − c + 1 tokens of Q. The index stores positional inverted lists over
// all tokens; a query scans only its prefix's lists, applies the size and
// positional filters, and verifies survivors with an early-terminating
// merge.
package ppjoin

import (
	"errors"
	"math"
	"sort"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// posting locates one token occurrence: which record and at which position
// of the record's frequency-ordered token list.
type posting struct {
	id  int32
	pos int32
}

// Index is the exact containment search index.
type Index struct {
	// ordered[i] is record i's tokens sorted by ascending global frequency.
	ordered [][]hash.Element
	// rank maps a token to its global frequency rank (rarest = 0).
	rank map[hash.Element]int32
	// lists maps a token to its positional postings, ascending by id.
	lists map[hash.Element][]posting
}

// Build constructs the index over the dataset.
func Build(d *dataset.Dataset) (*Index, error) {
	if d == nil || len(d.Records) == 0 {
		return nil, errors.New("ppjoin: empty dataset")
	}
	freq := make(map[hash.Element]int)
	for _, r := range d.Records {
		for _, e := range r {
			freq[e]++
		}
	}
	tokens := make([]hash.Element, 0, len(freq))
	for e := range freq {
		tokens = append(tokens, e)
	}
	sort.Slice(tokens, func(a, b int) bool {
		fa, fb := freq[tokens[a]], freq[tokens[b]]
		if fa != fb {
			return fa < fb
		}
		return tokens[a] < tokens[b]
	})
	ix := &Index{
		ordered: make([][]hash.Element, len(d.Records)),
		rank:    make(map[hash.Element]int32, len(tokens)),
		lists:   make(map[hash.Element][]posting, len(tokens)),
	}
	for i, e := range tokens {
		ix.rank[e] = int32(i)
	}
	for i, r := range d.Records {
		ord := make([]hash.Element, len(r))
		copy(ord, r)
		sort.Slice(ord, func(a, b int) bool { return ix.rank[ord[a]] < ix.rank[ord[b]] })
		ix.ordered[i] = ord
		for pos, e := range ord {
			ix.lists[e] = append(ix.lists[e], posting{id: int32(i), pos: int32(pos)})
		}
	}
	return ix, nil
}

// SizeBytes approximates the in-memory footprint of the index structures:
// the reordered token lists, the rank table and the positional postings.
func (ix *Index) SizeBytes() int {
	b := 0
	for _, ord := range ix.ordered {
		b += 8 * len(ord)
	}
	b += 12 * len(ix.rank) // element + rank per entry
	for _, l := range ix.lists {
		b += 8 * len(l) // id + pos per posting
	}
	return b
}

// OverlapThreshold returns c = ⌈t*·q⌉ (at least 1 for t* > 0), the overlap a
// record must reach to satisfy the containment threshold.
func OverlapThreshold(qSize int, tstar float64) int {
	if tstar <= 0 {
		return 0
	}
	c := int(math.Ceil(tstar*float64(qSize) - 1e-9))
	if c < 1 {
		c = 1
	}
	return c
}

// Search returns, exactly, every record id with C(Q, X) ≥ tstar, ascending.
func (ix *Index) Search(q dataset.Record, tstar float64) []int {
	if len(q) == 0 {
		return nil
	}
	c := OverlapThreshold(len(q), tstar)
	if c == 0 {
		out := make([]int, len(ix.ordered))
		for i := range out {
			out[i] = i
		}
		return out
	}
	if c > len(q) {
		return nil
	}
	// Order the query tokens by global rank; tokens unseen in the dataset
	// have no postings and are placed first (they can never match, which
	// only makes the prefix conservative... they must still occupy prefix
	// slots, so give them rank −1-ish ordering).
	ord := make([]hash.Element, len(q))
	copy(ord, q)
	sort.Slice(ord, func(a, b int) bool {
		ra, oka := ix.rank[ord[a]]
		rb, okb := ix.rank[ord[b]]
		if oka != okb {
			return !oka // unknown tokens are rarest: frequency 0
		}
		if ra != rb {
			return ra < rb
		}
		return ord[a] < ord[b]
	})
	prefixLen := len(q) - c + 1
	// Candidate generation with the positional filter: token at query
	// position i and record position j can extend to an overlap of at most
	// 1 + min(q−1−i, x−1−j).
	type cand struct {
		count int32 // overlap accumulated within the prefix lists
		qPos  int32 // last matched query position
		xPos  int32 // last matched record position
	}
	cands := make(map[int32]*cand)
	for i := 0; i < prefixLen; i++ {
		e := ord[i]
		for _, p := range ix.lists[e] {
			x := ix.ordered[p.id]
			// Size filter: |X| ≥ c.
			if len(x) < c {
				continue
			}
			// Positional filter.
			upper := 1 + min(len(q)-1-i, len(x)-1-int(p.pos))
			cc := cands[p.id]
			if cc == nil {
				if upper < c {
					continue
				}
				cands[p.id] = &cand{count: 1, qPos: int32(i), xPos: p.pos}
				continue
			}
			if int(cc.count)+upper < c {
				// Even with all remaining tokens this candidate dies;
				// mark it dead.
				cc.count = -1 << 20
				continue
			}
			cc.count++
			cc.qPos, cc.xPos = int32(i), p.pos
		}
	}
	out := []int{}
	for id, cc := range cands {
		if cc.count < 0 {
			continue
		}
		// Verification: finish the overlap count by merging the suffixes
		// after the last matched positions, with early termination.
		total := int(cc.count) + mergeCount(
			ord[int(cc.qPos)+1:], ix.ordered[id][int(cc.xPos)+1:],
			ix.rank, c-int(cc.count))
		if total >= c {
			out = append(out, int(id))
		}
	}
	sort.Ints(out)
	return out
}

// mergeCount counts common tokens of the two rank-ordered suffixes, giving
// up early once the remaining tokens cannot reach `need` more matches.
func mergeCount(a, b []hash.Element, rank map[hash.Element]int32, need int) int {
	i, j, count := 0, 0, 0
	for i < len(a) && j < len(b) {
		// Early termination (suffix-filter style bound).
		rem := min(len(a)-i, len(b)-j)
		if count+rem < need {
			return count
		}
		ra, ok := rank[a[i]]
		if !ok {
			i++
			continue
		}
		rb := rank[b[j]]
		switch {
		case ra < rb:
			i++
		case ra > rb:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
