package core

import "slices"

// SearchSigScored is SearchSig with each hit's containment estimate
// attached, in ascending id order, and the total qualifying count; limit > 0
// caps the hits materialized. It is SearchSig's walk plus a scored page: a
// hit's score is the estimate that admitted it, the buffer overlap plus the
// G-KMV estimate from the walk's K∩ (countedEstimate), over |Q| and clamped
// to 1.
func (ix *Index) SearchSigScored(sig *QuerySig, tstar float64, limit int) ([]Scored, int) {
	return ix.AppendSearchSigScored([]Scored{}, sig, tstar, limit)
}

// AppendSearchSigScored is SearchSigScored with the hits appended to dst: a
// caller that brings a buffer with room allocates nothing.
func (ix *Index) AppendSearchSigScored(dst []Scored, sig *QuerySig, tstar float64, limit int) ([]Scored, int) {
	if tstar <= 0 {
		// Every record trivially satisfies the threshold; estimate only the
		// materialized page, never O(N).
		sig.Stats = QueryStats{}
		total, n := ix.recs.Len(), limit
		if limit <= 0 || limit > total {
			n = total
		}
		dst = reserve(dst, n)
		for i := range n {
			dst = append(dst, Scored{ID: i, Score: ix.EstimateContainment(sig, i)})
		}
		sig.Stats.Estimated = n
		return dst, total
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	page := ix.thresholdWalk(sig, tstar, sc)
	total := len(page)
	if limit > 0 && total > limit {
		// Only the page is sorted: a query of the Zipf head has thousands of
		// hits on its buffer alone for a page of a few.
		selectSmallestIDs(page, limit)
		page = page[:limit]
	}
	slices.Sort(page)
	size := float64(sig.Size)
	theta := tstar * size
	dst = reserve(dst, len(page))
	for _, id := range page {
		overlap := float64(ix.bufferOverlap(sig, id))
		if theta-overlap <= 0 {
			sig.Stats.Estimated++ // a buffer accept, which the walk did not estimate
		}
		dst = append(dst, Scored{ID: id, Score: min((overlap+ix.countedEstimate(sig, int32(id), sc))/size, 1)})
	}
	return dst, total
}

// reserve returns dst with room for n more hits: as it is when it has the
// room, else grown to exactly that, so SearchSigScored's result has no slack.
func reserve(dst []Scored, n int) []Scored {
	if cap(dst)-len(dst) < n {
		return append(make([]Scored, 0, len(dst)+n), dst...)
	}
	return dst
}

// selectSmallestIDs reorders ids, which are distinct, so that the n smallest
// come first, in no particular order: a quickselect (Hoare partition, middle
// pivot — the column-touched tail of a candidate walk is ascending already),
// expected O(len(ids)).
func selectSmallestIDs(ids []int, n int) {
	lo, hi := 0, len(ids)-1
	for lo < hi {
		p := ids[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for ids[i] < p {
				i++
			}
			for ids[j] > p {
				j--
			}
			if i <= j {
				ids[i], ids[j] = ids[j], ids[i]
				i++
				j--
			}
		}
		// ids[lo..j] ≤ p ≤ ids[i..hi], and anything between equals p.
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
