package core

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
	"gbkmv/internal/topkheap"
)

// Scored pairs a record id with its estimated containment similarity. It is
// an alias of the shared top-k heap item, so heap output flows through the
// engine layer without conversion.
type Scored = topkheap.Scored

// SearchTopK returns the k records with the highest estimated containment
// similarity C(Q, X), best first (ties broken by ascending id). Records with
// estimate 0 are never returned, so fewer than k results are possible.
func (ix *Index) SearchTopK(q dataset.Record, k int) []Scored {
	if k <= 0 {
		return nil // don't pay for the sketch
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	ix.sketchInto(&sc.sig, q)
	h := ix.topkSigWith(&sc.sig, k, sc)
	return h.Sorted()
}

// SearchTopKSig is SearchTopK with a prebuilt query signature.
func (ix *Index) SearchTopKSig(sig *QuerySig, k int) []Scored {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	h := ix.topkSigWith(sig, k, sc)
	return h.Sorted()
}

// AppendTopKSig is SearchTopKSig with the results appended to dst: a caller
// that brings a buffer with room allocates nothing.
func (ix *Index) AppendTopKSig(dst []Scored, sig *QuerySig, k int) []Scored {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	h := ix.topkSigWith(sig, k, sc)
	return h.AppendSorted(dst)
}

// topkSigWith selects the k best candidates with a bounded min-heap and an
// upper-bound prune instead of scoring everything and sorting: once the heap
// holds k results, a candidate whose cheap score ceiling cannot beat the
// running k-th score skips the full G-KMV merge entirely. The heap it returns
// lives in the scratch: the caller copies the results out (Sorted,
// AppendSorted) before the scratch goes back.
func (ix *Index) topkSigWith(sig *QuerySig, k int, sc *searchScratch) topkheap.Heap {
	if k <= 0 || sig.Size == 0 {
		return topkheap.Make(0, nil)
	}
	sig.Stats = QueryStats{}
	// Candidate generation as in searchSigWith with θ → 0⁺: any record
	// sharing a sketch element or a buffered element can score above zero.
	// K∩ per candidate is accumulated for the prune below.
	sc.nextEpoch()
	sc.touched = sc.touched[:0]
	for _, e := range sig.rest {
		for _, id := range ix.postings.get(e) {
			sc.visit(id)
			sc.counts[id]++
		}
	}
	if sig.buffer != nil {
		sc.columns = sc.columns[:0]
		for wi, words := 0, sig.buffer.Words(); wi < words; wi++ {
			for w := sig.buffer.Word(wi); w != 0; w &= w - 1 {
				sc.columns = append(sc.columns, int32(wi*64+bits.TrailingZeros64(w)))
			}
		}
		ix.visitColumns(sc)
	}
	// The score ceiling reuses Search's K∩ bound: D̂∩ = K∩·(k−1)/(k·U(k)) ≤
	// K∩/U(k) ≤ K∩/max(L_Q), since U(k) — the largest hash of L_Q ∪ L_X —
	// is at least the largest hash of L_Q alone (and in the lossless case
	// D̂∩ = K∩ ≤ K∩/max(L_Q) because hashes are ≤ 1). Adding the exact
	// buffer overlap gives an upper bound on the estimate; a candidate
	// whose bound is strictly below the current k-th score cannot enter the
	// results (a bound merely equal to it still can, winning its tie on a
	// smaller id, so ties are always scored).
	qMax := sig.qMax()
	size := float64(sig.Size)
	sig.Stats.Candidates = len(sc.touched)
	h := topkheap.Make(k, sc.heap)
	for _, id := range sc.touched {
		exact := ix.bufferOverlap(sig, int(id))
		upper := float64(exact)
		if qMax > 0 {
			upper += float64(sc.counts[id]) / qMax
		}
		ub := upper / size
		if ub > 1 {
			ub = 1
		}
		if h.Full() && ub < h.WorstScore() {
			sig.Stats.PrunedByBound++
			continue
		}
		sig.Stats.Estimated++
		est := (float64(exact) + gkmv.IntersectViews(sig.sketch, ix.arena.view(int(id))).DInter) / size
		if est > 1 {
			est = 1
		}
		if est > 0 {
			h.Push(int(id), est)
		}
	}
	sc.heap = h.Buf()
	return h
}

// SearchBatch runs Search for every query concurrently and returns the
// per-query result slices in input order. Each worker owns one scratch (and
// its embedded query-signature buffers) for its whole share of the batch.
func (ix *Index) SearchBatch(queries []dataset.Record, tstar float64) [][]int {
	return ix.searchEach(len(queries), tstar, func(i int, _ dataset.Record) dataset.Record { return queries[i] })
}

// searchEach is SearchBatch over n queries produced on demand: query(i, buf)
// returns the i-th, for which it may reuse buf — the calling worker's — as
// its memory.
func (ix *Index) searchEach(n int, tstar float64, query func(i int, buf dataset.Record) dataset.Record) [][]int {
	out := make([][]int, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.getScratch()
			defer ix.putScratch(sc)
			var buf dataset.Record
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				buf = query(i, buf[:0])
				ix.sketchInto(&sc.sig, buf)
				out[i] = ix.searchSigWith(&sc.sig, tstar, sc)
			}
		}()
	}
	wg.Wait()
	return out
}

// Pair is one containment-join result: C(records[Q], records[X]) ≥ t*.
type Pair struct {
	Q, X int
}

// Join computes the approximate containment self-join of the indexed
// collection: every ordered pair (i, j), i ≠ j, with estimated
// C(X_i, X_j) ≥ tstar. Queries run concurrently, each worker decoding the
// record it is on from the packed store; pairs are returned sorted by (Q, X).
// This is the join-shaped workload PPjoin was designed for, answered from the
// sketch.
func (ix *Index) Join(tstar float64) []Pair {
	results := ix.searchEach(ix.recs.Len(), tstar, func(i int, buf dataset.Record) dataset.Record {
		return ix.recs.AppendRecord(buf, i)
	})
	pairs := []Pair{}
	for q, ids := range results {
		for _, x := range ids {
			if x != q {
				pairs = append(pairs, Pair{Q: q, X: x})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Q != pairs[b].Q {
			return pairs[a].Q < pairs[b].Q
		}
		return pairs[a].X < pairs[b].X
	})
	return pairs
}
