package core

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gbkmv/internal/dataset"
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

// topkSigWith selects the k best records with a bounded min-heap instead of
// scoring everything and sorting. The heap it returns lives in the scratch:
// the caller copies the results out (Sorted, AppendSorted) before the scratch
// goes back.
//
// A record scores above zero only by sharing a sketch element or a buffered
// element with the query. The first kind are the records on the query's
// posting lists, touched with their K∩ as in thresholdWalk, and scored first.
// The second kind need no visit: the query's buffer columns are added into
// counter planes (countOverlaps), which hold |H_Q ∩ H_X| for every record at
// once, and a record on no posting list has K∩ = 0, so D̂∩ = 0 and its score
// is exactly its overlap over |Q| — those that can still enter the heap are
// read off the planes last (pushBufferOnly).
func (ix *Index) topkSigWith(sig *QuerySig, k int, sc *searchScratch) topkheap.Heap {
	if k <= 0 || sig.Size <= 0 {
		return topkheap.Make(0, nil)
	}
	sig.Stats = QueryStats{}
	m := ix.recs.Len()
	ix.gather(sig, 0, sc)
	b, nq := ix.countOverlaps(sig, sc)
	size := float64(sig.Size)
	h := topkheap.Make(k, sc.heap)
	// The score ceiling reuses Search's K∩ bound: D̂∩ = K∩·(k−1)/(k·U(k)) ≤
	// K∩/U(k) ≤ K∩/max(L_Q), since U(k) — the largest hash of L_Q ∪ L_X —
	// is at least the largest hash of L_Q alone (and in the lossless case
	// D̂∩ = K∩ ≤ K∩/max(L_Q) because hashes are ≤ 1). Adding the exact
	// buffer overlap gives an upper bound on the estimate; a candidate
	// whose bound is strictly below the current k-th score cannot enter the
	// results (a bound merely equal to it still can, winning its tie on a
	// smaller id, so ties are always scored). The bound is tried first with
	// the overlap at its largest, n_q, which dismisses most candidates of a
	// long query before their overlap is read.
	qMax := sig.qMax()
	for _, id := range sc.touched {
		sketch := 0.0
		if qMax > 0 {
			sketch = float64(sc.counts[id]) / qMax
		}
		if h.Full() && min((float64(nq)+sketch)/size, 1) < h.WorstScore() {
			sig.Stats.PrunedByBound++
			continue
		}
		exact := float64(sc.level(id, b))
		if h.Full() && min((exact+sketch)/size, 1) < h.WorstScore() {
			sig.Stats.PrunedByBound++
			continue
		}
		sig.Stats.Estimated++
		if est := min((exact+ix.countedEstimate(sig, int(id), int(sc.counts[id])))/size, 1); est > 0 {
			h.Push(int(id), est)
		}
	}
	sig.Stats.BufferAccepts = sc.pushBufferOnly(&h, k, b, nq, (m+bufWordBits-1)/bufWordBits, size)
	sig.Stats.Candidates = len(sc.touched) + sig.Stats.BufferAccepts
	sc.heap = h.Buf()
	return h
}

// countOverlaps adds the query's n_q buffer columns into sc.planes, counter
// planes over the records: plane i of the 64 records of word w is
// planes[w·b + i], and a record's overlap |H_Q ∩ H_X| is the b-bit number its
// bit spells across the word's planes, b = ⌈log₂(n_q + 1)⌉ (the vertical
// counting of b-Bit Sketch Trie, the rows of a query summed as in COBS). A
// word of 64 records takes the columns sixteen at a time through a
// Harley–Seal carry-save adder tree — fifteen full adders, no branch — whose
// ones, twos, fours and eights are the counter's low four planes; a sixteen
// ripples into the planes above. It returns b and n_q, zeros when the query
// has no buffered bit.
func (ix *Index) countOverlaps(sig *QuerySig, sc *searchScratch) (b, nq int) {
	if sig.buffer == nil {
		return 0, 0
	}
	width := ix.bufCols.width
	if cap(sc.columns) < width {
		sc.columns = make([]int32, 0, width) // a query's n_q is at most |E_H|
	}
	cols := sc.columns[:0]
	for wi, words := 0, sig.buffer.Words(); wi < words; wi++ {
		for w := sig.buffer.Word(wi); w != 0; w &= w - 1 {
			cols = append(cols, int32(wi*64+bits.TrailingZeros64(w)))
		}
	}
	sc.columns = cols
	if len(cols) == 0 {
		return 0, 0
	}
	b = bits.Len(uint(len(cols)))
	words := (ix.recs.Len() + bufWordBits - 1) / bufWordBits
	if cap(sc.planes) < words*b {
		// Sized for the most planes a query can take, the bits of |E_H|, so
		// a scratch makes them once, not once per query longer than before.
		sc.planes = make([]uint64, len(sc.marks)*bits.Len(uint(width)))
	}
	planes := sc.planes[:words*b]
	clear(planes)
	for w := 0; w < words; {
		for rows := ix.bufCols.rowsFrom(w); len(rows) >= width && w < words; rows, w = rows[width:], w+1 {
			row, p := rows[:width], planes[w*b:w*b+b]
			var ones, twos, fours, eights uint64
			for j := 0; j < len(cols); j += 16 {
				var x [16]uint64 // a last block short of sixteen adds zeros
				for t, bit := range cols[j:min(j+16, len(cols))] {
					x[t] = row[bit]
				}
				var twosA, twosB, foursA, foursB, eightsA, eightsB, carry uint64
				twosA, ones = fullAdd(ones, x[0], x[1])
				twosB, ones = fullAdd(ones, x[2], x[3])
				foursA, twos = fullAdd(twos, twosA, twosB)
				twosA, ones = fullAdd(ones, x[4], x[5])
				twosB, ones = fullAdd(ones, x[6], x[7])
				foursB, twos = fullAdd(twos, twosA, twosB)
				eightsA, fours = fullAdd(fours, foursA, foursB)
				twosA, ones = fullAdd(ones, x[8], x[9])
				twosB, ones = fullAdd(ones, x[10], x[11])
				foursA, twos = fullAdd(twos, twosA, twosB)
				twosA, ones = fullAdd(ones, x[12], x[13])
				twosB, ones = fullAdd(ones, x[14], x[15])
				foursB, twos = fullAdd(twos, twosA, twosB)
				eightsB, fours = fullAdd(fours, foursA, foursB)
				carry, eights = fullAdd(eights, eightsA, eightsB)
				for i := 4; carry != 0; i++ {
					p[i], carry = p[i]^carry, p[i]&carry
				}
			}
			// No count reaches a plane past b: those of the four are zero.
			for i, v := range [4]uint64{ones, twos, fours, eights} {
				if i < b {
					p[i] = v
				}
			}
		}
	}
	return b, len(cols)
}

// fullAdd adds three bits in each of 64 lanes: carry is the twos, sum the
// ones.
func fullAdd(x, y, z uint64) (carry, sum uint64) {
	u := x ^ y
	return x&y | u&z, u ^ z
}

// level returns record id's overlap as countOverlaps left it in b planes.
func (sc *searchScratch) level(id int32, b int) int {
	p := sc.planes[int(uint32(id)/bufWordBits)*b:][:b]
	shift, n := uint32(id)%bufWordBits, 0
	for i, w := range p {
		n |= int(w>>shift&1) << i
	}
	return n
}

// pushBufferOnly offers h the untouched records of the first words words of
// the b planes that can still enter it — each scores level/size exactly — and
// returns how many entered. The floor is the lowest level that scores the
// heap's worst (1 while it is not full), the cut the highest level that k of
// the records reach (levelCut) or the floor if that is higher. Those above
// the cut, fewer than k, all go in; those at it go in id order until one is
// refused, and every later one would be, at an equal score and a larger id;
// those below it are outscored by k records or by the heap. Nothing is read
// when the floor is past n_q, the largest overlap there is: a long query's
// posting lists have filled the heap past anything its buffer can give.
func (sc *searchScratch) pushBufferOnly(h *topkheap.Heap, k, b, nq, words int, size float64) (entered int) {
	score := func(level int) float64 { return min(float64(level)/size, 1) }
	floor := 1
	if h.Full() {
		floor = max(int(h.WorstScore()*size)-1, 1)
		for floor <= nq && score(floor) < h.WorstScore() {
			floor++
		}
	}
	if floor > nq {
		return 0
	}
	cut := max(sc.levelCut(k, b, words), floor)
	for cut > floor && score(cut-1) == score(cut) {
		cut-- // a level below scoring the same (clamped at 1) competes on id
	}
	above := cut+1 < 1<<b
	for w := 0; above && w < words; w++ {
		for m := sc.atLeast(w, b, 0, cut+1) &^ sc.marks[w]; m != 0; m &= m - 1 {
			id := w*bufWordBits + bits.TrailingZeros64(m)
			if s := score(sc.level(int32(id), b)); h.Admits(id, s) {
				h.Push(id, s)
				entered++
			}
		}
	}
	at := score(cut)
	for w := 0; w < words; w++ {
		m := sc.atLeast(w, b, 0, cut) &^ sc.marks[w]
		if above {
			m &^= sc.atLeast(w, b, 0, cut+1)
		}
		for ; m != 0; m &= m - 1 {
			id := w*bufWordBits + bits.TrailingZeros64(m)
			if !h.Admits(id, at) {
				return entered
			}
			h.Push(id, at)
			entered++
		}
	}
	return entered
}

// levelCut returns the highest level that k untouched records of the first
// words words of the b planes reach, 0 when fewer than k have an overlap: bit
// by bit from the top, a bit of the cut is set when k records still reach it.
func (sc *searchScratch) levelCut(k, b, words int) int {
	cut := 0
	for i := b - 1; i >= 0; i-- {
		try, n := cut|1<<i, 0
		for w := 0; w < words && n < k; w++ {
			n += bits.OnesCount64(sc.atLeast(w, b, i, try) &^ sc.marks[w])
		}
		if n >= k {
			cut = try
		}
	}
	return cut
}

// atLeast returns the records of word w whose planes from i up spell the
// high bits of level or more, i.e. whose overlap is ≥ level when level's
// bits below i are zero.
func (sc *searchScratch) atLeast(w, b, i, level int) uint64 {
	p := sc.planes[w*b : w*b+b]
	ge, eq := uint64(0), ^uint64(0)
	for j := b - 1; j >= i; j-- {
		if level>>j&1 != 0 {
			eq &= p[j]
		} else {
			ge |= eq & p[j]
			eq &^= p[j]
		}
	}
	return ge | eq
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
