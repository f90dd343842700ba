package core

import (
	"gbkmv/internal/hash"
	"gbkmv/internal/topkheap"
)

// searchScratch is the per-call working memory of the query path: the K∩
// counts sized to the collection (with growth slack, see getScratch), a mark
// bitmap over record ids (a bit a record, cleared a query: at 50 000 records
// it is 6 kB and stays in L1, where an array of per-record stamps was 200 kB),
// the posting lists and bit columns a query reads, the counter planes the
// columns add up to, the hit buffer of the threshold walk, a reusable top-k
// heap buffer, a reusable query-signature slot for the sketch-and-search
// entry points, and a decoded record for the single-record estimates
// (sharedCount). Instances live in a per-index sync.Pool; steady-state
// searches therefore allocate nothing beyond their result slice — and not
// that when the caller brings one (AppendSearchSigScored, AppendTopKSig).
// Results are always copied out, never an alias of ids, which the next query
// on this scratch overwrites.
//
// Concurrency contract: a scratch is owned by exactly one query at a time
// (getScratch/putScratch bracket every use). The index itself stays
// read-concurrent — scratches never hold index state, only per-query
// working memory — and mutations (AddRecords, shrinks) are already excluded
// from running concurrently with reads by the Engine contract.
type searchScratch struct {
	counts  []int32     // K∩ per touched record
	marks   []uint64    // marks[id/64] bit id%64 ⇔ id touched by this query
	touched []int32     // the touched ids, for sparse iteration
	lists   []*listHead // the query's posting lists, by length when T ≥ 2
	columns []int32     // the buffer bits whose columns this query reads
	planes  []uint64    // the overlap counters, ⌈log₂(n_q+1)⌉ words per 64 records
	ids     []int       // thresholdWalk's hits, unsorted, before the copy out
	heap    []topkheap.Scored
	sig     QuerySig       // reusable signature for the Search(q)/SearchTopK(q) paths
	rec     []hash.Element // a decoded record, for sharedCount
}

// getScratch returns a scratch covering the current collection.
// (Re)allocation sizes the arrays a quarter past the collection, so an insert
// does not invalidate every pooled scratch: a scratch is re-made once per
// 25 % of growth, not once per record.
func (ix *Index) getScratch() *searchScratch {
	sc, _ := ix.scratchPool.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{}
	}
	if m := ix.recs.Len(); len(sc.counts) < m {
		n := m + m/4
		sc.counts = make([]int32, n)
		sc.marks = make([]uint64, (n+bufWordBits-1)/bufWordBits)
	}
	return sc
}

// putScratch returns a scratch to the pool.
func (ix *Index) putScratch(sc *searchScratch) {
	ix.scratchPool.Put(sc)
}

// start begins a query over m records on this scratch: no record is touched
// yet. Each query run (thresholdWalk, topkSigWith) calls it once, so a
// scratch held across a whole batch still isolates its queries from one
// another.
func (sc *searchScratch) start(m int) {
	clear(sc.marks[:(m+bufWordBits-1)/bufWordBits])
	sc.touched = sc.touched[:0]
}

// touch marks id as touched by the current query, resetting its count on
// first contact.
func (sc *searchScratch) touch(id int32) {
	w, bit := &sc.marks[uint32(id)/bufWordBits], uint64(1)<<(uint32(id)%bufWordBits)
	if *w&bit != 0 {
		return
	}
	*w |= bit
	sc.counts[id] = 0
	sc.touched = append(sc.touched, id)
}
