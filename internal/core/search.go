package core

import (
	"math"
	"math/bits"
	"slices"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// Search returns the ids of all records whose estimated containment
// similarity C(Q, X) is at least tstar, using the inverted-index accelerated
// algorithm. Results are sorted ascending. It returns what SearchLinear
// (Algorithm 2) returns, from the same K∩ and the same estimate, but skips
// records that share no signature element with the query.
//
// The query is sketched into pooled scratch memory, so steady-state calls
// allocate only the result slice.
func (ix *Index) Search(q dataset.Record, tstar float64) []int {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	ix.sketchInto(&sc.sig, q)
	return ix.searchSigWith(&sc.sig, tstar, sc)
}

// SearchSig is Search with a prebuilt query signature.
func (ix *Index) SearchSig(sig *QuerySig, tstar float64) []int {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	return ix.searchSigWith(sig, tstar, sc)
}

// searchSigWith runs the id search over caller-provided scratch, shared by
// SearchSig, Search and the per-worker batch paths: the walk's hits, sorted
// and copied out.
func (ix *Index) searchSigWith(sig *QuerySig, tstar float64, sc *searchScratch) []int {
	if tstar <= 0 {
		// Every record trivially satisfies the threshold.
		sig.Stats = QueryStats{}
		out := make([]int, ix.recs.Len())
		for i := range out {
			out[i] = i
		}
		return out
	}
	hits := ix.thresholdWalk(sig, tstar, sc)
	slices.Sort(hits)
	out := make([]int, len(hits))
	copy(out, hits)
	return out
}

// thresholdWalk is the threshold search's candidate walk, t* > 0: it leaves
// the ids of the records meeting θ = t*·|Q| in sc.ids, in no particular
// order, and each candidate's K∩ in sc.counts, and returns sc.ids. Both
// belong to the scratch until the next walk on it.
//
// Its candidates are the records touched on the query's posting lists
// (gather), each pruned, accepted on its buffer or estimated, and — when
// records can qualify on their buffers alone — the records on none of them
// that do, read off the counter planes (appendBufferOnly).
func (ix *Index) thresholdWalk(sig *QuerySig, tstar float64, sc *searchScratch) []int {
	sig.Stats = QueryStats{}
	// Hits collect in the scratch: candidates outnumber hits by orders of
	// magnitude, so a result is sized by what qualified, not what was
	// touched.
	out := sc.ids[:0]
	if sig.Size <= 0 {
		// An empty query is contained in nothing: every estimate is 0.
		return out
	}
	theta := tstar * float64(sig.Size)
	minCount := sig.minCount(theta)
	ix.gather(sig, minCount, sc)
	// The paper's K∩ ≥ o prune (Section IV-B, "Implementation"): the
	// G-KMV estimate is D̂∩ = K∩·(k−1)/(k·U(k)) ≤ K∩/U(k), and U(k) — the
	// largest hash in L_Q ∪ L_X — is at least the largest hash of L_Q
	// alone. A candidate can only reach the remaining overlap need
	// θ − |H_Q ∩ H_X| if K∩ ≥ need·max(L_Q). Below minCount it cannot for
	// any overlap, and its buffer row is not read.
	qMax := sig.qMax()
	for _, id := range sc.touched {
		if sc.counts[id] < minCount {
			sig.Stats.PrunedByBound++
			continue
		}
		overlap := float64(ix.bufferOverlap(sig, int(id)))
		need := theta - overlap
		if need <= 0 {
			// The exact buffer part alone meets the threshold.
			out = append(out, int(id))
			sig.Stats.BufferAccepts++
			continue
		}
		if float64(sc.counts[id]) < need*qMax {
			sig.Stats.PrunedByBound++
			continue
		}
		sig.Stats.Estimated++
		if overlap+ix.countedEstimate(sig, int(id), int(sc.counts[id])) >= theta {
			out = append(out, int(id))
		}
	}
	// A record on none of the lists has K∩ = 0, so D̂∩ = 0 in every branch of
	// gkmv.Estimate: it qualifies on its buffer alone, when its overlap
	// reaches c = ⌈θ⌉. No record does past the query's n_q buffered bits.
	if c := math.Ceil(theta); sig.buffer != nil && c <= float64(sig.buffer.Count()) {
		hits := len(out)
		out = ix.appendBufferOnly(sig, int(c), out, sc)
		sig.Stats.BufferAccepts += len(out) - hits
	}
	sig.Stats.Candidates = len(sc.touched)
	sc.ids = out
	return out
}

// appendBufferOnly appends to out the records gather left untouched whose
// buffer overlap is c or more, c ≥ 1, read off the counter planes the
// query's columns add up to (countOverlaps), and touches each, so that it
// reads K∩ = 0. Only a query that can qualify records on their buffers pays
// for the planes: the walk of a long query reads the rows of its few
// candidates instead.
func (ix *Index) appendBufferOnly(sig *QuerySig, c int, out []int, sc *searchScratch) []int {
	b, _ := ix.countOverlaps(sig, sc)
	for w, words := 0, (ix.recs.Len()+bufWordBits-1)/bufWordBits; w < words; w++ {
		for m := sc.atLeast(w, b, 0, c) &^ sc.marks[w]; m != 0; m &= m - 1 {
			id := int32(w*bufWordBits + bits.TrailingZeros64(m))
			sc.touch(id)
			out = append(out, int(id))
		}
	}
	return out
}

// minCount returns T = ⌈(θ − n_q)·max(L_Q)⌉, the fewest posting lists of the
// query a record must be on to reach θ, or 0 when no count is too few. The
// per-candidate K∩ prune dismisses K∩ < (θ − |H_Q ∩ H_X|)·max(L_Q), and no
// buffer overlap exceeds the query's n_q buffered bits: the float expression
// is that prune's at overlap n_q, so K∩ < T is a prune it makes at every
// overlap. T ≥ 1 implies θ > n_q, so no record then qualifies on its buffer.
func (sig *QuerySig) minCount(theta float64) int32 {
	nq := 0
	if sig.buffer != nil {
		nq = sig.buffer.Count()
	}
	if bound := (theta - float64(nq)) * sig.qMax(); bound > 0 {
		return int32(math.Ceil(bound))
	}
	return 0
}

// gather begins a query on sc and touches the records on the query's posting
// lists, with K∩ per record accumulated exactly in sc.counts. K∩ counts the
// sketch *elements* a record shares with the query, and the estimate is made
// from it (countedEstimate). The single-record API (EstimateIntersection,
// SearchLinear) counts the same elements on the decoded record instead
// (sharedCount).
//
// minCount is the fewest lists a record must be on to qualify: top-k passes
// 0, the threshold search its minCount T. Below 2 every list touches. From
// T = 2 on, a record that qualifies is on T of the query's L posting lists,
// so — by pigeonhole — on one of any L − T + 1 of them: only the L − T + 1
// shortest touch records, and the T − 1 longest only count for records
// already touched, a bit test in the mark bitmap each (gatherCounted).
func (ix *Index) gather(sig *QuerySig, minCount int32, sc *searchScratch) {
	sc.start(ix.recs.Len())
	if minCount >= 2 {
		ix.gatherCounted(sig, int(minCount), sc)
		return
	}
	for _, e := range sig.rest {
		if h := ix.postings.find(e); h != nil {
			ix.touchList(h, sc)
		}
	}
}

// touchList touches every record on a list, counting its K∩.
func (ix *Index) touchList(h *listHead, sc *searchScratch) {
	run, tail := ix.postings.read(h)
	id := int32(-1)
	for s := run; ; s = tail.slots {
		for i := 0; i < len(s); i++ {
			g := int32(s[i])
			if g == 0 {
				g, i = escaped(s, i)
			}
			id += g
			sc.touch(id)
			sc.counts[id]++
		}
		if !tail.more() {
			return
		}
	}
}

// gatherCounted is gather for a query whose candidates need K∩ ≥ t,
// t ≥ 2: the query's posting lists by length, the L − t + 1 shortest touch,
// the rest only count. No record is touched when fewer than t lists are
// non-empty.
func (ix *Index) gatherCounted(sig *QuerySig, t int, sc *searchScratch) {
	lists := sc.lists[:0]
	for _, e := range sig.rest {
		if h := ix.postings.find(e); h != nil {
			lists = append(lists, h)
		}
	}
	if short := len(lists) - t + 1; short > 0 {
		slices.SortStableFunc(lists, func(a, b *listHead) int { return int(a.n+a.tn) - int(b.n+b.tn) })
		for _, h := range lists[:short] {
			ix.touchList(h, sc)
		}
		marks := sc.marks
		for _, h := range lists[short:] {
			run, tail := ix.postings.read(h)
			id := int32(-1)
			for s := run; ; s = tail.slots {
				for i := 0; i < len(s); i++ {
					g := int32(s[i])
					if g == 0 {
						g, i = escaped(s, i)
					}
					id += g
					if marks[uint32(id)/bufWordBits]&(1<<(uint32(id)%bufWordBits)) != 0 {
						sc.counts[id]++
					}
				}
				if !tail.more() {
					break
				}
			}
		}
	}
	clear(lists) // the pooled scratch keeps no header alive
	sc.lists = lists[:0]
}

// SearchLinear is the plain Algorithm 2 of the paper: it scans every record,
// estimates |Q ∩ X| by Equation 27 and keeps records meeting θ = t*·|Q|.
// Results are sorted ascending. It exists as the reference implementation
// for Search and for the ablation benchmarks: every record is decoded and
// its K∩ counted against the query's elements (sharedCount), where Search
// reads K∩ off the posting lists.
func (ix *Index) SearchLinear(q dataset.Record, tstar float64) []int {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	sig := &sc.sig
	ix.sketchInto(sig, q)
	theta := tstar * float64(sig.Size)
	out := []int{}
	if tstar > 0 && sig.Size <= 0 {
		// As in thresholdWalk: θ is 0 too, but an empty query is contained in
		// nothing.
		return out
	}
	for i := 0; i < ix.recs.Len(); i++ {
		if ix.estimateRecord(sig, i, sc) >= theta {
			out = append(out, i)
		}
	}
	return out
}

// shrinkSlackDivisor sets how far past the overshoot a threshold shrink
// evicts: budget/shrinkSlackDivisor extra keys (0.78 % of the budget), so the
// O(index) select + posting filter + re-summary is paid once per slack's
// worth of inserted keys rather than on nearly every insert at a full
// budget. DESIGN.md "Dynamic inserts" has the measured cost of both sides.
const shrinkSlackDivisor = 128

// AddRecords appends records in order under the fixed space budget
// ("Processing Dynamic Data", Section IV-B): when a record takes the index
// over budget the global threshold is recomputed for the enlarged dataset and
// every sketch is cut to the new (never larger) threshold. The buffered
// element set E_H is kept fixed; a full rebuild refreshes it. The over-budget
// check runs after every record, so the state after k records is a function
// of the record sequence alone — never of how callers group it into batches
// (journal replay and follower apply regroup freely). Each new element is
// hashed exactly once: a kept key goes into the record's summary and its
// element's posting list at once, and a record allocates nothing of its own.
//
// The records are coded onto the packed store, not retained: the caller's
// slices are its own again when AddRecords returns.
//
// It panics, before touching the index, when a record is not strictly
// ascending (the dataset.Record invariant; the panic names its position in
// recs), or when the batch could take the posting lists' tails to 2³²−1 slots
// or the record store to 2³²−1 bytes, the ends of their 32-bit positions
// (BuildIndex returns an error in each case).
func (ix *Index) AddRecords(recs []dataset.Record) {
	incoming := 0
	var err error
	for i, rec := range recs {
		incoming += len(rec)
		for j := 1; j < len(rec) && err == nil; j++ {
			if rec[j] <= rec[j-1] {
				err = snapfmt.UnsortedError{Record: i}
			}
		}
	}
	if err == nil {
		err = checkPostingRoom(ix.postings.tailBound(incoming))
	}
	if err == nil {
		err = ix.recs.CheckRoom(len(recs), incoming)
	}
	if err != nil {
		panic("core: " + err.Error())
	}
	ix.bufArena.grow(len(recs))
	ix.bufCols.grow(ix.recs.Len() + len(recs))
	ix.decodedMu.Lock()
	if ix.decoded != nil {
		for _, rec := range recs {
			ix.decoded = append(ix.decoded, slices.Clone(rec))
		}
	}
	ix.decodedMu.Unlock()
	for _, rec := range recs {
		id := ix.recs.Len()
		if err := ix.recs.Append(rec); err != nil {
			panic("core: " + err.Error()) // checked above: the record is ascending, and CheckRoom made the room
		}
		// The record's postings go in before the budget check: the shrink
		// selects its cut from the lists, this record's keys included, and
		// filters them with the rest — the state "sketch, shrink, then post
		// under the new cut" leaves.
		k, top, hashed, block := 0, uint32(0), 0, ix.bufCols.block(id)
		for _, e := range rec {
			if bit, ok := ix.bitOf.lookup(e); ok {
				ix.bufArena.set(id, bit)
				mark(block, bit, id)
				continue
			}
			hashed++
			if v := hash.Key32(e, ix.opt.Seed); v <= ix.cut {
				k, top = k+1, max(top, v)
				ix.postings.add(e, int32(id))
			}
		}
		ix.sums.Append(makeSummary(k, top, k == hashed))
		ix.keys += k
		ix.elementsHashed.Add(uint64(hashed))
		if over := ix.UsedUnits() - ix.budget; over > 0 {
			ix.shrinkThreshold(over)
		}
	}
}

// shrinkThreshold lowers τ to evict `over` kept keys plus the amortisation
// slack (budget/shrinkSlackDivisor), summarises again the records it evicts
// keys from and filters the posting lists under the new threshold,
// reporting whether anything changed. It returns false — leaving the index
// exactly as it was — when no keys are kept at all, or only the occurrences
// of one element: then the overshoot is buffer cost (which grows with the
// record count and cannot shrink) or a single tie run, and the over-budget
// state is accepted rather than paying a rebuild per insert, or worse,
// panicking.
//
// Nothing is decoded from the records and no occurrence is hashed: the new τ
// is an order statistic of the kept multiset, which the lists hold as
// {key(e) × |list(e)|} — one hash a listed element, and the same weighted
// selection the build makes —, the records whose U(k) lies over the new cut
// are summarised again from the lists (resummarise), and the filter drops
// whole lists by those keys.
func (ix *Index) shrinkThreshold(over int) bool {
	if ix.keys == 0 {
		return false
	}
	keep := max(1, ix.keys-over-ix.budget/shrinkSlackDivisor)
	pairs := ix.postings.keyCounts(ix.sel.pairs[:0], ix.opt.Seed)
	ix.sel.pairs = pairs
	// The new cut is the keep-th smallest kept key. τ is a value threshold
	// and identical elements share a key, so a tie run at the cut stays
	// whole: the index can settle over budget by less than that run.
	// Crucially the new τ depends only on the kept multiset and keep — never
	// on the insertion grouping — so batched and sequential inserts (and
	// hence journal replay) converge on identical state.
	cut := ix.sel.kthWeighted(pairs, keep)
	if cut == ix.cut {
		// The run on the current cut is longer than what has to go, and it
		// only grows with the inserts (an order statistic of a multiset lands
		// inside its biggest runs: the occurrences of one popular unbuffered
		// element). Evict it whole — the cut drops to the largest kept key
		// strictly below, still a function of the multiset alone — rather
		// than decline every shrink while the run takes the index ever
		// further over budget.
		below, found := uint32(0), false
		for _, p := range pairs {
			if p.n > 0 && p.key < cut && (!found || p.key > below) {
				below, found = p.key, true
			}
		}
		if !found {
			return false // the run is all there is
		}
		cut = below
	}
	ix.cut = cut
	ix.resummarise(pairs, cut)
	ix.postings.filter(pairs, cut)
	ix.shrinks.Add(1)
	return true
}
