package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"gbkmv/internal/hash"
	"gbkmv/internal/selectk"
)

// This file is the hash-once build pipeline behind BuildIndex and
// journal-replay batch inserts. The pipeline computes hash.Key32 exactly
// once per occurrence into per-worker chunks and reuses those keys for every
// downstream stage:
//
//	hashChunks        one parallel pass: split non-buffered (element, key)
//	                  pairs per record into contiguous worker chunks, setting
//	                  buffer-arena bits along the way
//	kthSmallest       τ selection as a streaming histogram merge over the
//	                  chunk keys (exact order statistic, no O(n) copy)
//	packArena         parallel filter+sort of each record's run into the
//	                  flat sketch arena at precomputed offsets
//	postingsFromChunks per-worker element-sharded posting maps, merged by
//	                  element shard in parallel
//
// Every stage is deterministic in the record order alone: chunk boundaries
// and worker counts never influence τ, the arena, the buffers or any posting
// list (the differential tests in build_test.go pin this bit for bit).

// forcedBuildWorkers overrides the build worker count when positive; it
// exists for the worker-count-invariance tests and stays 0 in production.
var forcedBuildWorkers int

// buildWorkers returns the worker count for a pipeline stage over m records.
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

// buildChunk holds one worker's share of the hashed collection: the
// non-buffered elements of records [lo, hi) flattened in record order, their
// keys (parallel slice), and the per-record end offsets.
type buildChunk struct {
	lo, hi int
	elems  []hash.Element
	keys   []uint32
	recEnd []int32 // recEnd[i-lo] = end offset of record i in elems/keys
}

// runParallel invokes fn(i) for i in [0, n) across up to `workers`
// goroutines, one contiguous index per call, and waits for completion.
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
	step := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// hashChunks runs the single hashing pass of the pipeline: every record's
// elements are split into buffered bits (written to the buffer arena) and
// non-buffered (element, key) pairs collected into per-worker chunks. This
// is the only place the build hashes the collection.
func (ix *Index) hashChunks() []buildChunk {
	m := len(ix.records)
	workers := buildWorkers(m)
	step := (m + workers - 1) / workers
	chunks := make([]buildChunk, 0, workers)
	for lo := 0; lo < m; lo += step {
		hi := lo + step
		if hi > m {
			hi = m
		}
		chunks = append(chunks, buildChunk{lo: lo, hi: hi})
	}
	seed := ix.opt.Seed
	runParallel(len(chunks), workers, func(ci int) {
		c := &chunks[ci]
		total := 0
		for i := c.lo; i < c.hi; i++ {
			total += len(ix.records[i])
		}
		c.elems = make([]hash.Element, 0, total)
		c.keys = make([]uint32, 0, total)
		c.recEnd = make([]int32, 0, c.hi-c.lo)
		for i := c.lo; i < c.hi; i++ {
			for _, e := range ix.records[i] {
				if bit, ok := ix.bitOf[e]; ok {
					ix.bufArena.set(i, bit)
					continue
				}
				c.elems = append(c.elems, e)
				c.keys = append(c.keys, hash.Key32(e, seed))
			}
			c.recEnd = append(c.recEnd, int32(len(c.elems)))
		}
	})
	var hashed uint64
	for i := range chunks {
		hashed += uint64(len(chunks[i].keys))
	}
	ix.elementsHashed.Add(hashed)
	return chunks
}

// recRange returns the slice bounds of record i's pairs within the chunk.
func (c *buildChunk) recRange(i int) (int32, int32) {
	var start int32
	if i > c.lo {
		start = c.recEnd[i-c.lo-1]
	}
	return start, c.recEnd[i-c.lo]
}

// tauBucketBits sets the histogram resolution of kthSmallest: at most
// 2^tauBucketBits buckets, at least half as many in use. Keys are uniform on
// [0, upper], so the candidate bucket holds ~n/4096 to ~n/2048 of them.
const tauBucketBits = 12

// kthSmallest returns the k-th smallest key (1-based) of the multiset formed
// by the parts, all of which must lie in [0, upper]. It replaces a full
// concatenate-and-quickselect with a streaming two-pass histogram: each
// part's bucket counts merge into one histogram, only the bucket containing
// the target rank is materialized, and the exact order statistic is selected
// inside it. The result depends only on the multiset and k — never on how
// keys are split across parts — so parallel and sequential builds agree bit
// for bit.
func kthSmallest(parts [][]uint32, k int, upper uint32) uint32 {
	var sel kthSelector
	return sel.kthSmallest(parts, k, upper)
}

// kthSelector is kthSmallest's working memory: the merged bucket histogram
// and the candidate buffer of the target bucket. The build selects once and
// uses a throw-away selector; the index keeps one for its threshold shrinks,
// which therefore allocate nothing in steady state.
type kthSelector struct {
	hist  []int
	cands []uint32
}

func (s *kthSelector) kthSmallest(parts [][]uint32, k int, upper uint32) uint32 {
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
	if len(parts) == 1 {
		// The shrink's call (one part: the arena) counts straight into the
		// kept histogram, on the caller's goroutine.
		for _, v := range parts[0] {
			s.hist[v>>shift]++
		}
	} else {
		hists := make([][]int, len(parts))
		runParallel(len(parts), buildWorkers(len(parts)), func(pi int) {
			h := make([]int, buckets)
			for _, v := range parts[pi] {
				h[v>>shift]++
			}
			hists[pi] = h
		})
		for _, h := range hists {
			for b, n := range h {
				s.hist[b] += n
			}
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
		// k exceeds the multiset size; callers guard against this, but the
		// largest key is the only sensible answer.
		top := uint32(0)
		for _, p := range parts {
			for _, v := range p {
				top = max(top, v)
			}
		}
		return top
	}
	cands := s.cands[:0]
	for _, p := range parts {
		for _, v := range p {
			if int(v>>shift) == target {
				cands = append(cands, v)
			}
		}
	}
	s.cands = cands
	return selectk.Select(cands, k-1-before)
}

// chunkKeyParts projects the chunks onto their key slices for kthSmallest.
func chunkKeyParts(chunks []buildChunk) [][]uint32 {
	parts := make([][]uint32, len(chunks))
	for i := range chunks {
		parts[i] = chunks[i].keys
	}
	return parts
}

// packArenaFromChunks fills the sketch arena from the hashed chunks under
// the index's threshold: per-record run lengths are counted in parallel, the
// offset table is one prefix sum, and each worker then filters and sorts its
// records' runs directly into the shared key store (disjoint ranges, no
// synchronization). Sorting the filtered multiset reproduces exactly what
// the sequential gkmv.BuildHashes produces. It fails, before the prefix sum
// could wrap, when the kept keys exceed what the offset table addresses.
func (ix *Index) packArenaFromChunks(chunks []buildChunk) error {
	m := len(ix.records)
	cut := ix.cut
	a := &ix.arena
	if cap(a.offsets) < m+1 {
		a.offsets = make([]uint32, m+1)
	} else {
		a.offsets = a.offsets[:m+1]
	}
	if cap(a.complete) < m {
		a.complete = make([]bool, m)
	} else {
		a.complete = a.complete[:m]
	}
	workers := buildWorkers(m)
	runParallel(len(chunks), workers, func(ci int) {
		c := &chunks[ci]
		for i := c.lo; i < c.hi; i++ {
			start, end := c.recRange(i)
			n := 0
			for _, v := range c.keys[start:end] {
				if v <= cut {
					n++
				}
			}
			a.offsets[i+1] = uint32(n) // run length; prefix-summed below
			a.complete[i] = n == int(end-start)
		}
	})
	total := 0
	for _, n := range a.offsets[1:] {
		total += int(n)
	}
	if err := checkArenaRoom(total); err != nil {
		return err
	}
	a.offsets[0] = 0
	for i := 0; i < m; i++ {
		a.offsets[i+1] += a.offsets[i]
	}
	if cap(a.keys) < total {
		a.keys = make([]uint32, total)
	} else {
		a.keys = a.keys[:total]
	}
	runParallel(len(chunks), workers, func(ci int) {
		c := &chunks[ci]
		for i := c.lo; i < c.hi; i++ {
			start, end := c.recRange(i)
			run := a.keys[a.offsets[i]:a.offsets[i+1]:a.offsets[i+1]]
			run = run[:0]
			for _, v := range c.keys[start:end] {
				if v <= cut {
					run = append(run, v)
				}
			}
			slices.Sort(run)
		}
	})
	return nil
}

// Posting lists are sharded by element so that both the parallel merge at
// build time and the threshold-shrink filter can own disjoint element
// subsets without locking. The shard count caps merge parallelism; lookups
// stay a single map access.
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

// buildPostingsFromChunks constructs the inverted lists from the hashed
// chunks: each chunk worker scatters its records' qualifying elements into
// element-sharded maps, then one merge worker per shard concatenates the
// chunk maps in chunk order. Chunks cover ascending record ranges, so every
// merged list is ascending by record id — identical to a sequential scan.
func (ix *Index) buildPostingsFromChunks(chunks []buildChunk) {
	cut := ix.cut
	workers := buildWorkers(len(ix.records))
	chunkShards := make([][]map[hash.Element][]int32, len(chunks))
	runParallel(len(chunks), workers, func(ci int) {
		c := &chunks[ci]
		shards := make([]map[hash.Element][]int32, postingsShards)
		for s := range shards {
			shards[s] = make(map[hash.Element][]int32)
		}
		for i := c.lo; i < c.hi; i++ {
			start, end := c.recRange(i)
			for j := start; j < end; j++ {
				if c.keys[j] <= cut {
					e := c.elems[j]
					s := shards[uint(e)&postingsShardMask]
					s[e] = append(s[e], int32(i))
				}
			}
		}
		chunkShards[ci] = shards
	})
	final := make([]map[hash.Element][]int32, postingsShards)
	runParallel(postingsShards, workers, func(s int) {
		size := 0
		for _, shards := range chunkShards {
			size += len(shards[s])
		}
		merged := make(map[hash.Element][]int32, size)
		for _, shards := range chunkShards {
			for e, ids := range shards[s] {
				merged[e] = append(merged[e], ids...)
			}
		}
		final[s] = merged
	})
	ix.postings = postingsTable{shards: final}
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

// buildBufferPostings constructs the per-bit record lists and the cached
// rarity order of the prefix filter from the buffer arena. Workers own
// disjoint word columns of the arena, so all lists build concurrently and
// each stays ascending by record id. A build passes nil and lets append grow
// the lists; a load has counted the bits (sizes[bit] records hold bit) and
// gets the lists as windows of one slab, each with the eighth of headroom
// append growth would have left it, so a restart allocates what it keeps and
// the first insert into a list does not copy it.
func (ix *Index) buildBufferPostings(sizes []int) {
	r := ix.bufferBits
	ix.bufferPostings = make([][]int32, r)
	if sizes != nil {
		room := func(n int) int { return n + n/8 + 1 }
		total := 0
		for _, n := range sizes[:r] {
			total += room(n)
		}
		slab := make([]int32, total)
		for bit, n := range sizes[:r] {
			ix.bufferPostings[bit], slab = slab[:0:room(n)], slab[room(n):]
		}
	}
	if r > 0 {
		m := len(ix.records)
		stride := ix.bufArena.stride
		runParallel(stride, buildWorkers(stride), func(w int) {
			for i := 0; i < m; i++ {
				word := ix.bufArena.words[i*stride+w]
				for word != 0 {
					bit := w*bufWordBits + bits.TrailingZeros64(word)
					word &= word - 1
					if bit < r {
						ix.bufferPostings[bit] = append(ix.bufferPostings[bit], int32(i))
					}
				}
			}
		})
	}
	ix.bitOrder = make([]int32, r)
	for i := range ix.bitOrder {
		ix.bitOrder[i] = int32(i)
	}
	sort.Slice(ix.bitOrder, func(a, b int) bool {
		la := len(ix.bufferPostings[ix.bitOrder[a]])
		lb := len(ix.bufferPostings[ix.bitOrder[b]])
		if la != lb {
			return la < lb
		}
		return ix.bitOrder[a] < ix.bitOrder[b]
	})
}

// rebuildPostings derives a loaded index's inverted lists from its records —
// the one structure a snapshot does not carry — as a counting sort into one
// slab of exactly arena.units() record ids: a counting pass sizes every
// element's list, a prefix sum places the lists, a second pass fills them.
// Nothing is staged per occurrence; the only working memory is one counter
// per distinct element (elemCounters). The passes run on the calling
// goroutine: a segmented collection rebuilds its segments side by side, and
// the staging a parallel build needs (buildPostingsFromChunks, 16 bytes an
// occurrence) is what a load must not allocate.
//
// The counting pass also checks each record against its run in the arena —
// as many elements under τ as stored keys, completeness flag to match —
// which is what guarantees the slab is exactly large enough, and is the last
// consistency check a decoded index gets before anything searches it.
func (ix *Index) rebuildPostings() error {
	seed, cut := ix.opt.Seed, ix.cut
	occurrences, top := 0, hash.Element(0)
	for _, rec := range ix.records {
		occurrences += len(rec)
		if len(rec) > 0 {
			top = max(top, rec[len(rec)-1])
		}
	}
	counters := newElemCounters(top, occurrences)
	for _, e := range ix.bufferElems {
		if e <= top { // one no record holds needs no counter
			*counters.at(e) = skipElem
		}
	}
	// counter returns the counter of an element that belongs in the inverted
	// lists — hashed under τ, not buffered — and nil for any other.
	counter := func(e hash.Element) *uint32 {
		if hash.Key32(e, seed) > cut {
			return nil
		}
		if n := counters.at(e); *n != skipElem {
			return n
		}
		return nil
	}
	bitSizes := make([]int, ix.bufArena.stride*bufWordBits)
	for i, rec := range ix.records {
		run := int(ix.arena.offsets[i+1] - ix.arena.offsets[i])
		under := 0
		for _, e := range rec {
			if n := counter(e); n != nil {
				*n++
				under++
			}
		}
		buffered := 0
		if ix.bufArena.stride > 0 {
			for w, word := range ix.bufArena.record(i) {
				for ; word != 0; word &= word - 1 {
					bitSizes[w*bufWordBits+bits.TrailingZeros64(word)]++
					buffered++
				}
			}
		}
		if under != run || ix.arena.complete[i] != (under == len(rec)-buffered) {
			return fmt.Errorf("record %d does not match its stored sketch", i)
		}
	}
	// Counts become list starts; the fill pass advances each to its list's end.
	next, perShard := uint32(0), make([]int, postingsShards)
	counters.each(func(e hash.Element, n *uint32) {
		if *n != skipElem && *n > 0 {
			perShard[uint(e)&postingsShardMask]++
			*n, next = next, next+*n
		}
	})
	slab := make([]int32, ix.arena.units())
	for i, rec := range ix.records {
		for _, e := range rec {
			if n := counter(e); n != nil {
				slab[*n] = int32(i)
				*n++
			}
		}
	}
	shards := make([]map[hash.Element][]int32, postingsShards)
	for s := range shards {
		shards[s] = make(map[hash.Element][]int32, perShard[s])
	}
	start := uint32(0)
	counters.each(func(e hash.Element, end *uint32) {
		if *end != skipElem && *end > start {
			shards[uint(e)&postingsShardMask][e] = slab[start:*end:*end]
			start = *end
		}
	})
	ix.elementsHashed.Add(2 * uint64(occurrences)) // the counting and the fill pass
	ix.postings = postingsTable{shards: shards}
	ix.buildBufferPostings(bitSizes)
	return nil
}

// skipElem marks a buffered element's counter: its occurrences live in the
// buffer, not in the inverted lists.
const skipElem = math.MaxUint32

// elemCounters is one uint32 per element, visited in a fixed order. Element
// ids handed out by a Vocabulary are dense, and then the counters are a flat
// array indexed by id: on 20 000 records / 1.3 M occurrences at τ = 1
// rebuildPostings takes 21 ms with it and 88 ms through the map (Load 45 and
// 111 ms; at τ = 0.086, where one occurrence in twelve reaches a counter, 21
// and 30), and a restart's CPU time is this loop. Where ids are sparse
// against the records at hand (a small segment of a large vocabulary, or
// arbitrary 64-bit ids) the array would dwarf them, and a map from element
// to position in a packed array takes over.
type elemCounters struct {
	n     []uint32
	index map[hash.Element]uint32 // sparse ids only: element → position in n
	elems []hash.Element          // sparse ids only: position → element
}

// newElemCounters picks the flat array when it costs no more than 4 bytes
// per element occurrence, i.e. when ids are at least as dense as occurrences.
func newElemCounters(top hash.Element, occurrences int) *elemCounters {
	if top < hash.Element(occurrences) {
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

// each visits every counter in a fixed order (the same on every call).
func (c *elemCounters) each(fn func(e hash.Element, n *uint32)) {
	for i := range c.n {
		e := hash.Element(i)
		if c.index != nil {
			e = c.elems[i]
		}
		fn(e, &c.n[i])
	}
}
