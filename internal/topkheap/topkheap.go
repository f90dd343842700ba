// Package topkheap implements a bounded top-k selector: a size-k min-heap
// rooted at the worst item kept so far. Selecting the k best of n candidates
// costs O(n log k) instead of the O(n log n) score-everything-then-sort it
// replaces, and — the property the GB-KMV query path exploits — the root
// exposes a running k-th-best score that cheap upper bounds can be pruned
// against before paying for an exact estimate.
//
// Ordering matches the search contract everywhere in this repository: higher
// score is better, ties are broken by ascending id.
package topkheap

import "slices"

// Scored pairs a record id with its score. core.Scored and gbkmv.Scored are
// aliases of this type, so heap output flows to callers without conversion.
type Scored struct {
	ID    int
	Score float64
}

// Heap is the bounded selector. The zero value is unusable; call Make.
type Heap struct {
	k     int
	items []Scored
}

// Make returns a selector for the k best items, reusing buf (its length is
// reset to zero) as the backing array when it has capacity.
func Make(k int, buf []Scored) Heap {
	if cap(buf) < k {
		n := k
		if n > 1024 {
			// Keep pathological k requests from pre-allocating the world;
			// the heap grows by append beyond this.
			n = 1024
		}
		buf = make([]Scored, 0, n)
	}
	return Heap{k: k, items: buf[:0]}
}

// worse reports whether a ranks strictly below b: lower score, or equal score
// with a larger id.
func worse(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Full reports whether k items are held, i.e. whether WorstScore is a live
// pruning threshold.
func (h *Heap) Full() bool { return len(h.items) >= h.k }

// WorstScore returns the score of the k-th best item kept so far. It is only
// meaningful when Full: a candidate whose upper bound is strictly below it
// cannot enter the result and may be skipped without scoring. (A bound equal
// to it must still be scored — the candidate can win its tie on id.)
func (h *Heap) WorstScore() float64 { return h.items[0].Score }

// Admits reports whether Push(id, score) would keep the item: the heap is not
// full, or the item ranks above the current worst.
func (h *Heap) Admits(id int, score float64) bool {
	it := Scored{ID: id, Score: score}
	return len(h.items) < h.k || !(worse(it, h.items[0]) || it == h.items[0])
}

// Push offers an item. When the heap is full the item replaces the current
// worst only if it ranks above it.
func (h *Heap) Push(id int, score float64) {
	if !h.Admits(id, score) {
		return
	}
	it := Scored{ID: id, Score: score}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return
	}
	h.items[0] = it
	h.down(0)
}

// Len returns the number of items held.
func (h *Heap) Len() int { return len(h.items) }

// Buf returns the backing array for reuse in a later Make.
func (h *Heap) Buf() []Scored { return h.items }

// Sorted returns the kept items best first (ties by ascending id) in a new
// slice, leaving the heap's backing array reusable.
func (h *Heap) Sorted() []Scored {
	if len(h.items) == 0 {
		return nil
	}
	return h.AppendSorted(make([]Scored, 0, len(h.items)))
}

// AppendSorted appends the kept items to dst, best first (ties by ascending
// id), leaving the heap's backing array reusable. With nothing kept dst comes
// back as it was.
func (h *Heap) AppendSorted(dst []Scored) []Scored {
	base := len(dst)
	dst = append(dst, h.items...)
	slices.SortFunc(dst[base:], func(a, b Scored) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		default:
			return 0
		}
	})
	return dst
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && worse(h.items[r], h.items[l]) {
			least = r
		}
		if !worse(h.items[least], h.items[i]) {
			return
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}
