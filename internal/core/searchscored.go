package core

import "slices"

// SearchSigScored is SearchSig with each hit's containment estimate
// attached: records meeting θ = tstar·|Q| are returned as (id, estimate)
// pairs in ascending id order, together with the total qualifying count.
// limit > 0 caps the hits that are materialized (the total still counts
// everything).
//
// The point of the combined form is that every *returned* record is
// estimated exactly once: the estimate that decided membership during the
// candidate walk doubles as the hit's score, instead of the serving layer
// re-estimating each returned id after Search. Records accepted on the
// exact buffer part alone (whose membership needs no G-KMV estimate) defer
// their estimate until after the limit cut, so hits beyond the cap are
// never scored. A score comes from the K∩ the candidate walk counted
// (countedEstimate), not from a merge of the two runs.
func (ix *Index) SearchSigScored(sig *QuerySig, tstar float64, limit int) ([]Scored, int) {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	hits, total := ix.searchSigScoredWith(sig, tstar, limit, sc)
	res := make([]Scored, len(hits))
	copy(res, hits)
	return res, total
}

// AppendSearchSigScored is SearchSigScored with the hits appended to dst: a
// caller that brings a buffer with room allocates nothing.
func (ix *Index) AppendSearchSigScored(dst []Scored, sig *QuerySig, tstar float64, limit int) ([]Scored, int) {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	hits, total := ix.searchSigScoredWith(sig, tstar, limit, sc)
	return append(dst, hits...), total
}

// searchSigScoredWith runs the scored search over caller-provided scratch,
// which owns the hits it returns: the caller copies them out before the
// scratch goes back. It is result-equivalent to searchSigWith followed by
// EstimateContainment on each returned id (the differential tests pin this),
// but for the 32-bit key collisions countedEstimate does not count.
func (ix *Index) searchSigScoredWith(sig *QuerySig, tstar float64, limit int, sc *searchScratch) ([]Scored, int) {
	sig.Stats = QueryStats{}
	if tstar <= 0 {
		// Every record trivially satisfies the threshold; estimate only the
		// materialized page, never O(N).
		total := ix.recs.Len()
		n := total
		if limit > 0 && n > limit {
			n = limit
		}
		out := slices.Grow(sc.hits[:0], n)
		for i := 0; i < n; i++ {
			out = append(out, Scored{ID: i, Score: ix.EstimateContainment(sig, i)})
		}
		sc.hits = out
		sig.Stats.Estimated = n
		return out, total
	}
	if sig.Size <= 0 {
		// An empty query is contained in nothing: every estimate is 0.
		return nil, 0
	}
	size := float64(sig.Size)
	theta := tstar * size
	minCount := ix.gatherSearchCandidates(sig, theta, sc)
	sig.Stats.Candidates = len(sc.touched)
	// Same K∩ ≥ need·max(L_Q) and K∩ > 0 prunes as searchSigWith; pruned
	// candidates are provably below θ, so they need no estimate at all.
	qMax := sig.qMax()
	out := sc.hits[:0] // scratch-owned, as in searchSigWith
	deferred := false
	for _, id := range sc.touched {
		if sc.counts[id] < minCount {
			sig.Stats.PrunedByBound++
			continue
		}
		overlap := float64(ix.bufferOverlap(sig, int(id)))
		need := theta - overlap
		if need <= 0 {
			// The exact buffer part alone meets the threshold: membership is
			// settled, so park the estimate behind the limit cut. The score
			// holds −1 − overlap meanwhile, a sentinel (real scores are
			// clamped to [0, 1]) that keeps the overlap, so the row is read
			// once.
			out = append(out, Scored{ID: int(id), Score: -1 - overlap})
			deferred = true
			sig.Stats.BufferAccepts++
			continue
		}
		if sc.counts[id] == 0 || float64(sc.counts[id]) < need*qMax {
			sig.Stats.PrunedByBound++
			continue
		}
		sig.Stats.Estimated++
		if inter := overlap + ix.countedEstimate(sig, id, sc); inter >= theta {
			est := inter / size
			if est > 1 {
				est = 1
			}
			out = append(out, Scored{ID: int(id), Score: est})
		}
	}
	sc.hits = out
	total := len(out)
	if limit > 0 && len(out) > limit {
		// Only the page is sorted: a query of the Zipf head has thousands of
		// hits on its buffer alone for a page of a few.
		selectSmallestIDs(out, limit)
		out = out[:limit]
	}
	slices.SortFunc(out, func(a, b Scored) int { return a.ID - b.ID })
	if deferred {
		for i := range out {
			if out[i].Score < 0 {
				overlap := -1 - out[i].Score
				out[i].Score = min((overlap+ix.countedEstimate(sig, int32(out[i].ID), sc))/size, 1)
				sig.Stats.Estimated++
			}
		}
	}
	return out, total
}

// selectSmallestIDs reorders hits, whose ids are distinct, so that the n with
// the smallest ids come first, in no particular order: a quickselect
// (Hoare partition, middle pivot — the column-touched tail of a candidate
// walk is ascending already), expected O(len(hits)).
func selectSmallestIDs(hits []Scored, n int) {
	lo, hi := 0, len(hits)-1
	for lo < hi {
		p := hits[lo+(hi-lo)/2].ID
		i, j := lo, hi
		for i <= j {
			for hits[i].ID < p {
				i++
			}
			for hits[j].ID > p {
				j--
			}
			if i <= j {
				hits[i], hits[j] = hits[j], hits[i]
				i++
				j--
			}
		}
		// hits[lo..j] ≤ p ≤ hits[i..hi], and anything between equals p.
		switch {
		case n-1 <= j:
			hi = j
		case n-1 >= i:
			lo = i
		default:
			return
		}
	}
}
