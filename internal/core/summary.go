package core

import "gbkmv/internal/gkmv"

// summary is a record's G-KMV sketch L_X as gkmv.Estimate reads it beside
// K∩: its size k, its largest key U(k) (0 when k is 0) and whether it covers
// every non-buffered element. The keys are the posting lists': record i's
// are those of the elements whose lists name i. One word: U(k) in the low 32
// bits, completeness in bit 32, k in the 31 above (a record of 2³¹ elements
// would be 16 GB of hash.Element to hand in).
type summary uint64

func makeSummary(k int, top uint32, complete bool) summary {
	s := summary(k)<<33 | summary(top)
	if complete {
		s |= 1 << 32
	}
	return s
}

func (s summary) k() int { return int(s >> 33) }

func (s summary) top() uint32 { return uint32(s) }

func (s summary) gkmv() gkmv.Summary {
	return gkmv.Summary{K: s.k(), Top: s.top(), Complete: s&(1<<32) != 0}
}

// summaryOf returns record i's summary.
func (ix *Index) summaryOf(i int) summary {
	// The slab derive laid out holds nearly every record a search reads.
	if built := ix.sums.Slab(); i < len(built) {
		return built[i]
	}
	return *ix.sums.Ptr(i)
}

// resummarise brings to a shrink's new cut, from the lists and before filter
// drops those over it, the summary of each record with keys over the cut
// (marked in ix.evicted; no other changes): it is incomplete now, loses a key
// for each dropped list naming it, and takes for U(k) the largest key of the
// staying lists naming it. One walk over the ids, a bit test each, no hash.
func (ix *Index) resummarise(pairs []keyCount, cut uint32) {
	words := (ix.recs.Len() + bufWordBits - 1) / bufWordBits
	if len(ix.evicted) < words {
		ix.evicted = make([]uint64, words)
	}
	evicted := ix.evicted[:words]
	clear(evicted)
	// Row addresses are dense, so the chunks hold the records in order.
	id := 0
	for _, chunk := range ix.sums.Chunks() {
		for j, s := range chunk {
			if s.top() > cut {
				evicted[(id+j)/bufWordBits] |= 1 << ((id + j) % bufWordBits)
				chunk[j] = makeSummary(s.k(), 0, false)
			}
		}
		id += len(chunk)
	}
	for l, pair := range pairs {
		if pair.n == 0 {
			continue
		}
		run, tail := ix.postings.read(ix.postings.heads.Ptr(l))
		id := int32(-1)
		for s := run; ; s = tail.slots {
			for i := 0; i < len(s); i++ {
				g := int32(s[i])
				if g == 0 {
					g, i = escaped(s, i)
				}
				id += g
				if evicted[uint32(id)/bufWordBits]&(1<<(uint32(id)%bufWordBits)) == 0 {
					continue
				}
				w := ix.sums.Ptr(int(id))
				if pair.key > cut {
					*w, ix.keys = makeSummary(w.k()-1, w.top(), false), ix.keys-1
				} else if pair.key > w.top() {
					*w = makeSummary(w.k(), pair.key, false)
				}
			}
			if !tail.more() {
				break
			}
		}
	}
}
