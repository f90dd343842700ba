package core

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"gbkmv/internal/hash"
	"gbkmv/internal/selectk"
)

// This file is the one place an index's derived state is computed. A GB-KMV
// index is a function of (records, E_H, τ, seed) — Algorithm 1 — and derive
// is that function: BuildIndex calls it once τ is chosen, Load calls it on
// what a snapshot carries (the same four inputs, nothing else), and both get
// the same bits. Nothing is staged per element occurrence: a key is a 6–8 ns
// hash.Key32, cheaper to compute again than to park until it is needed, so
// the passes below re-hash what they need instead (DESIGN.md "Derive, don't
// store" has the measured trade).
//
//	selectCut   build only: τ as an exact order statistic of the non-buffered
//	            occurrence keys, streamed twice through kthSelector's
//	            histogram (count, then materialise the target bucket) from
//	            the element frequency table: one hash a distinct element
//	derive      counting pass → prefix sums → fill pass: buffer arena and its
//	            bit columns, sketch arena, inverted lists and bit order
//
// Every pass runs over contiguous record ranges, one per worker, and is
// deterministic in the record order alone: range boundaries and worker
// counts never influence τ, an arena or any list (the differential tests in
// build_test.go and derive_test.go pin this bit for bit).

// forcedBuildWorkers overrides the worker count when positive; it exists for
// the worker-count-invariance tests and stays 0 in production.
var forcedBuildWorkers int

// buildWorkers returns the worker count for a pass over m items.
func buildWorkers(m int) int {
	w := forcedBuildWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// span is a contiguous range of indices: one worker's share of a pass.
type span struct{ lo, hi int }

// spans splits [0, n) into at most `workers` contiguous, ascending spans,
// every boundary but the last a multiple of align.
func spans(n, workers, align int) []span {
	step := (n + workers - 1) / workers
	step = (step + align - 1) / align * align
	out := make([]span, 0, workers)
	for lo := 0; lo < n; lo += step {
		out = append(out, span{lo, min(lo+step, n)})
	}
	return out
}

// runParallel invokes fn(i) for i in [0, n) across up to `workers`
// goroutines, one span of indices each, and waits for completion.
func runParallel(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for _, sp := range spans(n, workers, 1) {
		wg.Add(1)
		go func(sp span) {
			defer wg.Done()
			for i := sp.lo; i < sp.hi; i++ {
				fn(i)
			}
		}(sp)
	}
	wg.Wait()
}

// tauBucketBits sets the histogram resolution of kthSmallest: at most
// 2^tauBucketBits buckets, at least half as many in use. Keys are uniform on
// [0, upper], so the candidate bucket holds ~n/4096 to ~n/2048 of them.
const tauBucketBits = 12

// keyScan streams one part of a key multiset to emit, a block at a time. A
// selection scans every part twice and must be shown the same keys both
// times.
type keyScan func(part int, emit func(keys []uint32))

// kthSelector selects order statistics of a streamed key multiset; what it
// keeps between calls is its working memory, the merged bucket histogram and
// the candidate buffer of the target bucket. The build selects once with a
// throw-away selector; the index keeps one for its threshold shrinks.
type kthSelector struct {
	hist  []int
	cands []uint32
}

// kthSmallest returns the k-th smallest key (1-based) of the multiset formed
// by the parts, all of which must lie in [0, upper]. It replaces a full
// concatenate-and-quickselect with a streaming two-pass histogram: each
// part's bucket counts merge into one histogram, only the bucket containing
// the target rank is materialized, and the exact order statistic is selected
// inside it. The result depends only on the multiset and k — never on how
// keys are split across parts — so parallel and sequential builds agree bit
// for bit. A k past the multiset's size (callers guard against it) selects
// upper, the threshold that keeps every key.
func (s *kthSelector) kthSmallest(parts int, scan keyScan, k int, upper uint32) uint32 {
	// A key's bucket is its top bits under the upper bound's width: one
	// shift per key (a division here doubles the cost of a saturated
	// insert), monotone in the key, and below 2^tauBucketBits.
	shift := max(0, bits.Len32(upper)-tauBucketBits)
	const buckets = 1 << tauBucketBits
	if s.hist == nil {
		s.hist = make([]int, buckets)
	} else {
		clear(s.hist)
	}
	workers := buildWorkers(parts)
	// Part 0 counts straight into the kept histogram — all of a shrink's
	// one-part call, on the caller's goroutine; further parts count into
	// their own, merged below.
	hists := make([][]int, parts)
	hists[0] = s.hist
	runParallel(parts, workers, func(p int) {
		if p > 0 {
			hists[p] = make([]int, buckets)
		}
		h := hists[p]
		scan(p, func(keys []uint32) {
			for _, v := range keys {
				h[v>>shift]++
			}
		})
	})
	for _, h := range hists[1:] {
		for b, n := range h {
			s.hist[b] += n
		}
	}
	before, target := 0, -1
	for b, in := range s.hist {
		if before+in >= k {
			target = b
			break
		}
		before += in
	}
	if target < 0 {
		return upper
	}
	cands := make([][]uint32, parts)
	cands[0] = s.cands[:0]
	runParallel(parts, workers, func(p int) {
		c := cands[p]
		scan(p, func(keys []uint32) {
			for _, v := range keys {
				if int(v>>shift) == target {
					c = append(c, v)
				}
			}
		})
		cands[p] = c
	})
	s.cands = cands[0]
	for _, c := range cands[1:] {
		s.cands = append(s.cands, c...)
	}
	return selectk.Select(s.cands, k-1-before)
}

// selectCut is line 3 of Algorithm 1: the k-th smallest key over the
// non-buffered element occurrences, the cut under which exactly the G-KMV
// budget fits. An element's occurrences share its key, so the multiset is
// {key(e) × freq[e]} and the frequency table the buffer was chosen from
// already holds it: each distinct element is hashed (once a scan) and its key
// emitted as often as it occurs — no pass over the occurrences, and no key
// held beyond a worker's one block.
func (ix *Index) selectCut(freq []int, k int) uint32 {
	seed := ix.opt.Seed
	parts := spans(len(freq), buildWorkers(len(freq)), 1)
	var sel kthSelector
	return sel.kthSmallest(len(parts), func(p int, emit func([]uint32)) {
		block, hashed := make([]uint32, 0, 1024), 0
		for e := parts[p].lo; e < parts[p].hi; e++ {
			f := freq[e]
			if _, buffered := ix.bitOf.lookup(hash.Element(e)); f == 0 || buffered {
				continue
			}
			hashed++
			for key := hash.Key32(hash.Element(e), seed); f > 0; f-- {
				if len(block) == cap(block) {
					emit(block)
					block = block[:0]
				}
				block = append(block, key)
			}
		}
		emit(block)
		ix.elementsHashed.Add(uint64(hashed))
	}, k, math.MaxUint32)
}

// deriveWorkers sizes derive's worker count against the bulk of its working
// memory, one set of counters a worker. Flat arrays agree on positions by construction,
// and all of them together may cost half of what denseIDs allows the one: 2
// bytes an element occurrence, which keeps a load within a quarter of what it
// keeps on any core count (TestSnapshotAllocs). The map of sparse ids hands
// out positions first come, first served, so it has one worker.
func deriveWorkers(m int, top hash.Element, occurrences int) int {
	if !denseIDs(top, occurrences) {
		return 1
	}
	w := buildWorkers(m)
	if forcedBuildWorkers > 0 {
		return w
	}
	return max(1, min(w, occurrences/(2*(int(top)+1))))
}

// deriveShare is the working memory of one of derive's workers, all that is
// kept between its counting and its fill pass.
type deriveShare struct {
	cnt  *elemCounters  // element → records listing it, then the write cursor into the posting slab
	kept []uint64       // one bit an element occurrence of the span: not buffered, and under the cut
	rec  []hash.Element // the record at hand, decoded from the store
}

// derive computes everything an index holds beyond its inputs — the records,
// E_H (bufferElems, bitOf), the cut and the seed — as one counting sort:
//
//	count   per record: buffer bits set in the buffer arena and in the bit
//	        columns, run length and completeness; per element: how many
//	        records list it
//	place   prefix sums: the arena's offset table, and every inverted list as
//	        a window of one exactly sized slab
//	fill    per record: its keys ≤ cut sorted straight into its arena run, its
//	        id appended to the lists of its elements
//
// Workers own contiguous record ranges and their own counters; a list is
// laid out element by element and, within one, worker by worker, so it comes
// out ascending by record id whatever the worker count. Ranges start on
// multiples of 64 records, so no two workers share a word of a bit column.
// Both passes decode each record from the packed store into the worker's one
// buffer (a shift and an add an element, snapfmt's 1–2-byte path). The
// counting pass leaves the fill pass one bit per occurrence — kept or not —
// so only kept keys are hashed a second time and buffered-or-not is asked
// once; the working memory is that bit and the counters, no key and no pair.
//
// Everything per buffer bit — the buffer arena's stride, the bit columns, the
// bit order — is sized by |E_H|, the bits an element can set, and not by
// r: r is what the budget charges a record, and exceeds |E_H| when the build
// was asked for more bits than its records have elements. Every allocation
// here therefore follows a count of things at hand (records, occurrences,
// buffered elements), which a load was shown element by element; r, a number
// its stream merely declares, sizes nothing.
//
// It fails, before the prefix sum could wrap, when the kept keys exceed what
// the arena's offset table addresses.
func (ix *Index) derive() error {
	m, h := ix.recs.Len(), len(ix.bufferElems)
	seed, cut := ix.opt.Seed, ix.cut
	occurrences, top := ix.recs.Elements(), ix.recs.Top()
	parts := spans(m, deriveWorkers(m, top, occurrences), bufWordBits)

	ix.bufArena.init(m, h)
	ix.bufCols.init(m, h)
	lengths, complete := ix.arena.layout(m)
	shares := make([]deriveShare, len(parts))
	runParallel(len(parts), len(parts), func(w int) {
		spanOccurrences := 0
		for i := parts[w].lo; i < parts[w].hi; i++ {
			spanOccurrences += ix.recs.RecordLen(i)
		}
		sh := deriveShare{cnt: newElemCounters(top, occurrences), kept: make([]uint64, (spanOccurrences+63)/64)}
		pos, hashes := 0, 0
		for i := parts[w].lo; i < parts[w].hi; i++ {
			rest, under := 0, 0
			sh.rec = ix.recs.AppendRecord(sh.rec[:0], i)
			for _, e := range sh.rec {
				if bit, buffered := ix.bitOf.lookup(e); buffered {
					ix.bufArena.set(i, bit)
					ix.bufCols.set(bit, i)
				} else {
					rest++
					// At τ = 1 every key is under the cut: none is computed.
					if cut == math.MaxUint32 || hash.Key32(e, seed) <= cut {
						sh.kept[pos>>6] |= 1 << (pos & 63)
						*sh.cnt.at(e)++
						under++
					}
				}
				pos++
			}
			lengths[i+1] = uint32(under) // run length; prefix-summed by place
			complete[i] = under == rest
			hashes += under // the fill pass hashes what is kept
			if cut != math.MaxUint32 {
				hashes += rest // and this one what is not buffered
			}
		}
		shares[w] = sh
		ix.elementsHashed.Add(uint64(hashes))
	})

	keys, offsets, err := ix.arena.place()
	if err != nil {
		return err
	}
	total := len(keys)
	// Counts become write cursors into one slab of exactly `total` record
	// ids; the fill pass advances each worker's to where the next worker's
	// share of the list starts, the last worker's to the list's end.
	slab := make([]int32, total)
	last := shares[len(shares)-1].cnt
	next, perShard := uint32(0), make([]int, postingsShards)
	last.each(func(pos int, e hash.Element) {
		start := next
		for _, sh := range shares {
			sh.cnt.n[pos], next = next, next+sh.cnt.n[pos]
		}
		if next > start {
			perShard[uint(e)&postingsShardMask]++
		}
	})

	runParallel(len(parts), len(parts), func(w int) {
		sh, pos := shares[w], 0
		for i := parts[w].lo; i < parts[w].hi; i++ {
			run := keys[offsets[i]:offsets[i]:offsets[i+1]]
			sh.rec = ix.recs.AppendRecord(sh.rec[:0], i)
			for _, e := range sh.rec {
				if sh.kept[pos>>6]>>(pos&63)&1 != 0 {
					run = append(run, hash.Key32(e, seed))
					n := sh.cnt.at(e)
					slab[*n] = int32(i)
					*n++
				}
				pos++
			}
			// Sorting the filtered multiset is exactly gkmv.BuildHashes.
			slices.Sort(run)
		}
	})
	shards := make([]map[hash.Element][]int32, postingsShards)
	for s := range shards {
		shards[s] = make(map[hash.Element][]int32, perShard[s])
	}
	start := uint32(0)
	last.each(func(pos int, e hash.Element) {
		if end := last.n[pos]; end > start {
			shards[uint(e)&postingsShardMask][e] = slab[start:end:end]
			start = end
		}
	})
	ix.postings = postingsTable{shards: shards}

	held := make([]int, h)
	ix.bitOrder = make([]int32, h)
	for bit := range ix.bitOrder {
		ix.bitOrder[bit], held[bit] = int32(bit), ix.bufCols.count(bit)
	}
	slices.SortFunc(ix.bitOrder, func(a, b int32) int {
		return cmp.Or(held[a]-held[b], int(a-b))
	})
	return nil
}

// Posting lists are sharded by element so that the threshold-shrink filter
// can own disjoint element subsets without locking. Lookups stay a single
// map access.
const (
	postingsShards    = 32
	postingsShardMask = postingsShards - 1
)

// postingsTable is the element → record-id inverted index, sharded by
// element id. Lists are ascending by record id.
type postingsTable struct {
	shards []map[hash.Element][]int32
}

// get returns element e's posting list (nil when absent).
func (p *postingsTable) get(e hash.Element) []int32 {
	if p.shards == nil {
		return nil
	}
	return p.shards[uint(e)&postingsShardMask][e]
}

// add appends record id to element e's posting list.
func (p *postingsTable) add(e hash.Element, id int32) {
	s := p.shards[uint(e)&postingsShardMask]
	s[e] = append(s[e], id)
}

// filterPostings drops every element whose key exceeds the (newly shrunk)
// cut, one hash per distinct listed element instead of one per occurrence.
// Lists of surviving elements are untouched, so the result is exactly what a
// from-scratch rebuild at the new τ would produce for the same records.
func (ix *Index) filterPostings(cut uint32) {
	seed := ix.opt.Seed
	runParallel(postingsShards, buildWorkers(postingsShards), func(s int) {
		shard := ix.postings.shards[s]
		for e := range shard {
			if hash.Key32(e, seed) > cut {
				delete(shard, e)
			}
		}
	})
}

// elemCounters is one uint32 per element, at a fixed position. Element ids
// handed out by a Vocabulary are dense, and then the counters are a flat
// array indexed by id: on 20 000 records / 1.3 M occurrences at τ = 1 the
// inverted lists derive in 21 ms with it and 88 ms through the map, and a
// restart's CPU time is this loop. Where ids are sparse against the records
// at hand (a small segment of a large vocabulary, or arbitrary 64-bit ids)
// the array would dwarf them, and a map from element to position in a packed
// array takes over.
type elemCounters struct {
	n     []uint32
	index map[hash.Element]uint32 // sparse ids only: element → position in n
	elems []hash.Element          // sparse ids only: position → element
}

// denseIDs reports whether a flat array over [0, top] costs no more than 4
// bytes per element occurrence, i.e. ids are at least as dense as
// occurrences: never size an array by an id the records do not back.
func denseIDs(top hash.Element, occurrences int) bool {
	return top < hash.Element(occurrences)
}

func newElemCounters(top hash.Element, occurrences int) *elemCounters {
	if denseIDs(top, occurrences) {
		return &elemCounters{n: make([]uint32, top+1)}
	}
	return &elemCounters{index: make(map[hash.Element]uint32)}
}

// at returns e's counter, creating it at zero. The pointer is good until the
// next call.
func (c *elemCounters) at(e hash.Element) *uint32 {
	if c.index == nil {
		return &c.n[e]
	}
	i, ok := c.index[e]
	if !ok {
		i = uint32(len(c.n))
		c.index[e] = i
		c.elems = append(c.elems, e)
		c.n = append(c.n, 0)
	}
	return &c.n[i]
}

// each visits every counter's position and element in a fixed order (the
// same on every call).
func (c *elemCounters) each(fn func(pos int, e hash.Element)) {
	for i := range c.n {
		e := hash.Element(i)
		if c.index != nil {
			e = c.elems[i]
		}
		fn(i, e)
	}
}
