package core

import "gbkmv/internal/topkheap"

// searchScratch is the per-call working memory of the query path: the
// candidate-accumulation arrays sized to the collection (with growth slack,
// see getScratch), an epoch-stamped visited array so nothing is cleared
// between queries, the hit-collection buffers of the threshold searches, a
// reusable top-k heap buffer, and a reusable query-signature slot for the
// sketch-and-search entry points. Instances live in a per-index sync.Pool;
// steady-state searches therefore allocate nothing beyond their result
// slice — and not that when the caller brings one (AppendSearchSigScored,
// AppendTopKSig). Results are always copied out, never an alias of ids or
// hits, which the next query on this scratch overwrites.
//
// Concurrency contract: a scratch is owned by exactly one query at a time
// (getScratch/putScratch bracket every use). The index itself stays
// read-concurrent — scratches never hold index state, only per-query
// working memory — and mutations (AddRecords, shrinks) are already excluded
// from running concurrently with reads by the Engine contract.
type searchScratch struct {
	epoch   uint32
	visited []uint32 // visited[id] == epoch ⇔ id touched by this query
	counts  []int32  // K∩ per touched record
	touched []int32  // the touched ids, for sparse iteration
	columns []int32  // the buffer bits whose columns this query ORs
	union   []uint64 // their OR: one bit a record, sized with visited
	ids     []int    // searchSigWith's hits before the exact-size copy
	hits    []Scored // searchSigScoredWith's hits before the copy out
	heap    []topkheap.Scored
	sig     QuerySig // reusable signature for the Search(q)/SearchTopK(q) paths
}

// getScratch returns a scratch covering the current collection. The
// visited array is only zeroed on (re)allocation and on epoch wrap-around —
// per-query cost is O(touched), not O(m). (Re)allocation sizes the arrays a
// quarter past the collection, so an insert does not invalidate every pooled
// scratch: a scratch is re-made once per 25 % of growth, not once per record.
func (ix *Index) getScratch() *searchScratch {
	sc, _ := ix.scratchPool.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{}
	}
	m := ix.recs.Len()
	if len(sc.visited) < m {
		n := m + m/4
		sc.visited = make([]uint32, n)
		sc.counts = make([]int32, n)
		sc.union = make([]uint64, (n+bufWordBits-1)/bufWordBits)
		sc.epoch = 0
	}
	return sc
}

// putScratch returns a scratch to the pool.
func (ix *Index) putScratch(sc *searchScratch) {
	ix.scratchPool.Put(sc)
}

// nextEpoch starts a fresh query on this scratch: every previous visited
// stamp is invalidated in O(1). Each query run (searchSigWith, topkSigWith)
// calls this once — a scratch held across a whole batch therefore still
// isolates its queries from one another.
func (sc *searchScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 { // wrap: stale stamps could alias, clear once
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
}

// visit marks id as touched by the current query, resetting its count on
// first contact.
func (sc *searchScratch) visit(id int32) {
	if sc.visited[id] == sc.epoch {
		return
	}
	sc.visited[id] = sc.epoch
	sc.counts[id] = 0
	sc.touched = append(sc.touched, id)
}
