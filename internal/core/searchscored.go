package core

import (
	"slices"

	"gbkmv/internal/selectk"
)

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
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	var page []int
	total := ix.recs.Len()
	if tstar <= 0 {
		// Every record trivially satisfies the threshold: the page is the
		// first ids, each touched so that it reads its K∩ on the query's
		// lists, 0 when on none. Only the page is scored, never all N.
		sig.Stats = QueryStats{}
		ix.gather(sig, 0, sc)
		n := total
		if limit > 0 {
			n = min(limit, total)
		}
		page = sc.ids[:0]
		for id := range n {
			sc.touch(int32(id))
			page = append(page, id)
		}
		sc.ids = page
	} else {
		page = ix.thresholdWalk(sig, tstar, sc)
		total = len(page)
		if limit > 0 && total > limit {
			// Only the page is sorted: a query of the Zipf head has thousands
			// of hits on its buffer alone for a page of a few.
			selectk.Select(page, limit-1)
			page = page[:limit]
		}
		slices.Sort(page)
	}
	size := float64(sig.Size)
	theta := tstar * size
	dst = reserve(dst, len(page))
	for _, id := range page {
		overlap := float64(ix.bufferOverlap(sig, id))
		if theta-overlap <= 0 {
			sig.Stats.Estimated++ // a buffer accept, which the walk did not estimate
		}
		score := 0.0 // an empty query, at t* ≤ 0
		if size > 0 {
			score = min((overlap+ix.countedEstimate(sig, id, int(sc.counts[id])))/size, 1)
		}
		dst = append(dst, Scored{ID: id, Score: score})
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
