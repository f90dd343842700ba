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
	"gbkmv/internal/snapfmt"
)

// This file is the one place an index's derived state is computed. A GB-KMV
// index is a function of (records, E_H, τ, seed) — Algorithm 1 — and derive
// is that function: BuildPacked calls it once τ is chosen, Load calls it on
// what a snapshot carries (the same four inputs, nothing else), and both get
// the same bits. An element's key depends on the element alone, so the work
// follows distinct elements wherever it can and occurrences only where it
// must (DESIGN.md "Derive, don't store" has the measured stages):
//
//	countElements  one decode of every record, a span of them a worker: how
//	               many records of the span list each element (and, for the
//	               cost model, the record sizes)
//	selectCut      build only: τ as an exact order statistic of the
//	               non-buffered occurrence keys, from one hash and one
//	               (key, count) pair a distinct element
//	derive         classify every element once — buffered, kept or dropped —
//	               turn the counts of kept elements into write cursors, and
//	               fill: decode again, hash each kept occurrence into its
//	               record's arena run, write the record's id at its element's
//	               cursor, set the buffered bits
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

// tauBucketBits sets the histogram resolution of a selection: at most
// 2^tauBucketBits buckets, at least half as many in use. Keys are uniform on
// [0, upper], so the target bucket holds ~n/4096 to ~n/2048 of them.
const tauBucketBits = 12

// keyScan streams a key multiset to emit, a block at a time. A selection
// scans twice and must be shown the same keys both times.
type keyScan func(emit func(keys []uint32))

// kthSelector selects order statistics of key multisets; what it keeps
// between calls is its working memory, the bucket histogram and the
// candidate buffer of the target bucket. The build selects once with a
// throw-away selector; the index keeps one for its threshold shrinks.
type kthSelector struct {
	hist  []int
	cands []uint32
}

// histogram returns the selector's bucket histogram, cleared, and the shift
// that takes a key in [0, upper] to its bucket: its top bits under the upper
// bound's width — one shift per key (a division here doubles the cost of a
// saturated insert), monotone in the key, and below 2^tauBucketBits.
func (s *kthSelector) histogram(upper uint32) (hist []int, shift int) {
	if s.hist == nil {
		s.hist = make([]int, 1<<tauBucketBits)
	} else {
		clear(s.hist)
	}
	return s.hist, max(0, bits.Len32(upper)-tauBucketBits)
}

// target returns the bucket holding the k-th smallest key the histogram
// counts and how many keys the buckets below it hold; -1 when it counts
// fewer than k.
func (s *kthSelector) target(k int) (bucket, before int) {
	for b, in := range s.hist {
		if before+in >= k {
			return b, before
		}
		before += in
	}
	return -1, before
}

// kthSmallest returns the k-th smallest key (1-based) of the scanned
// multiset, all of which must lie in [0, upper]: the keys are counted into
// buckets, only the bucket containing the target rank is materialized, and
// the exact order statistic is selected inside it. A k past the multiset's
// size (callers guard against it) selects upper, the threshold that keeps
// every key.
func (s *kthSelector) kthSmallest(scan keyScan, k int, upper uint32) uint32 {
	hist, shift := s.histogram(upper)
	scan(func(keys []uint32) {
		for _, v := range keys {
			hist[v>>shift]++
		}
	})
	target, before := s.target(k)
	if target < 0 {
		return upper
	}
	cands := s.cands[:0]
	scan(func(keys []uint32) {
		for _, v := range keys {
			if int(v>>shift) == target {
				cands = append(cands, v)
			}
		}
	})
	s.cands = cands
	return selectk.Select(cands, k-1-before)
}

// keyCount is a key and how many times a multiset holds it.
type keyCount struct{ key, n uint32 }

// kthWeighted is kthSmallest over the multiset {key × n} of the pairs, keys
// anywhere in [0, MaxUint32]: a pair adds its count to its bucket, and the
// target bucket's pairs are sorted by key and their counts walked to the
// k-th. Its cost follows the pairs, not the multiset.
func (s *kthSelector) kthWeighted(pairs []keyCount, k int) uint32 {
	hist, shift := s.histogram(math.MaxUint32)
	for _, p := range pairs {
		hist[p.key>>shift] += int(p.n)
	}
	target, before := s.target(k)
	if target < 0 {
		return math.MaxUint32
	}
	var cands []keyCount
	for _, p := range pairs {
		if int(p.key>>shift) == target {
			cands = append(cands, p)
		}
	}
	slices.SortFunc(cands, func(a, b keyCount) int { return cmp.Compare(a.key, b.key) })
	last := len(cands) - 1
	for _, p := range cands[:last] {
		if before += int(p.n); before >= k {
			return p.key
		}
	}
	return cands[last].key
}

// selectCut is line 3 of Algorithm 1: the k-th smallest key over the
// non-buffered element occurrences, the cut under which exactly the G-KMV
// budget fits. An element's occurrences share its key, so the multiset is
// {key(e) × freq[e]} and the frequency table the buffer was chosen from
// already holds it: each distinct non-buffered element is hashed once, and
// its key and frequency are one pair of kthWeighted.
func (ix *Index) selectCut(freq []int, k int) uint32 {
	distinct := 0
	for _, f := range freq {
		if f > 0 {
			distinct++
		}
	}
	pairs := make([]keyCount, 0, distinct)
	for e, f := range freq {
		if f == 0 {
			continue
		}
		if _, buffered := ix.bitOf.lookup(hash.Element(e)); !buffered {
			pairs = append(pairs, keyCount{hash.Key32(hash.Element(e), ix.opt.Seed), uint32(f)})
		}
	}
	ix.elementsHashed.Add(uint64(len(pairs)))
	var sel kthSelector
	return sel.kthWeighted(pairs, k)
}

// deriveWorkers sizes the counting pass's and derive's worker count against
// the bulk of their working memory, one set of counters a worker. Flat arrays
// agree on positions by construction, and all of them together may cost half
// of what denseIDs allows the one: 2 bytes an element occurrence, which keeps
// a load within a quarter of what it keeps on any core count
// (TestSnapshotAllocs). The table of sparse ids hands out positions first
// come, first served, so it has one worker.
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

// elementCounts is what the counting pass reads of a packed store: its
// records in spans, one a worker, every boundary but the last a multiple of
// 64 records, and per span one set of element counters — how many of the
// span's records list each element; and the element ids' universe, one past
// the largest id the records hold (0 when they hold none).
type elementCounts struct {
	parts    []span
	cnts     []*elemCounters
	universe int
}

// countElements is the counting pass of a build and of a load, one decode of
// every record: each worker counts its span's occurrences into its own
// counters and, when sizes is not nil, writes its records' sizes there. A
// build sums the counters into its frequency table (frequencies) and hands
// them on to derive; a load hands them to derive at once.
func countElements(recs *snapfmt.PackedRecords, sizes []int) elementCounts {
	m, top, occurrences := recs.Len(), recs.Top(), recs.Elements()
	c := elementCounts{parts: spans(m, deriveWorkers(m, top, occurrences), bufWordBits)}
	c.cnts = make([]*elemCounters, len(c.parts))
	if occurrences > 0 {
		c.universe = int(top) + 1
	}
	runParallel(len(c.parts), len(c.parts), func(w int) {
		cnt, rec := newElemCounters(top, occurrences), []hash.Element(nil)
		for i := c.parts[w].lo; i < c.parts[w].hi; i++ {
			rec = recs.AppendRecord(rec[:0], i)
			if sizes != nil {
				sizes[i] = len(rec)
			}
			for _, e := range rec {
				cnt.n[cnt.slot(e)]++
			}
		}
		c.cnts[w] = cnt
	})
	return c
}

// frequencies sums the counters into a table over the universe: freq[e] is
// the number of records listing e.
func (c elementCounts) frequencies() []int {
	freq := make([]int, c.universe)
	for _, cnt := range c.cnts {
		cnt.each(func(pos int, e hash.Element) { freq[e] += int(cnt.n[pos]) })
	}
	return freq
}

// An element's class in derive, two bits an element position of a
// classTable. Dropped is the zero value, and an element no record lists
// stays dropped.
const (
	classDropped  = iota // not buffered, key over the cut
	classKept            // not buffered, key at or under the cut
	classBuffered        // in E_H
)

// classTable holds one class an element position.
type classTable []uint64

func newClassTable(positions int) classTable { return make(classTable, (positions+31)/32) }

func (t classTable) set(pos int, class uint64) { t[pos/32] |= class << (pos % 32 * 2) }

func (t classTable) of(pos int) uint64 { return t[pos/32] >> (pos % 32 * 2) & 3 }

// derive computes everything an index holds beyond its inputs — the records,
// E_H (bufferElems, bitOf), the cut and the seed — from the counting pass's
// counters, as one counting sort:
//
//	classify  per element position: buffered, kept or dropped — one hash a
//	          distinct non-buffered element, none at τ = 1. A buffered
//	          element's counters now hold its buffer bit; a kept element's
//	          become write cursors into one exactly sized slab of record ids,
//	          laid out element by element and, within one, worker by worker;
//	          and each worker's kept count places its first key in the arena
//	fill      per record, decoded again: its buffered elements set their bits
//	          in the buffer arena and in the bit columns, its kept ones are
//	          hashed into its arena run — sorted there — and its id is written
//	          at their cursors; a dropped one makes the run incomplete
//
// Workers own the counting pass's record ranges, so every list comes out
// ascending by record id and every run lands where the offsets, written in
// record order, say, whatever the worker count. Ranges start on multiples of
// 64 records, so no two workers share a word of a bit column. An occurrence
// costs the fill pass a test of its element's class, and a hash only when it
// is kept.
//
// Everything per buffer bit — the buffer arena's stride, the bit columns, the
// bit order — is sized by |E_H|, the bits an element can set, and not by
// r: r is what the budget charges a record, and exceeds |E_H| when the build
// was asked for more bits than its records have elements. Every allocation
// here therefore follows a count of things at hand (records, occurrences,
// buffered elements), which a load was shown element by element; r, a number
// its stream merely declares, sizes nothing.
//
// It fails, before the fill pass, when the kept keys exceed what the arena's
// offset table addresses.
func (ix *Index) derive(c elementCounts) error {
	m, h := ix.recs.Len(), len(ix.bufferElems)
	seed, cut := ix.opt.Seed, ix.cut
	last := c.cnts[len(c.cnts)-1]
	classes := newClassTable(len(last.n))
	starts := make([]int, len(c.cnts)+1) // worker w's kept count at w+1, then its first key at w
	next, hashed, lists := uint32(0), 0, 0
	last.each(func(pos int, e hash.Element) {
		listed := uint32(0)
		for _, cnt := range c.cnts {
			listed += cnt.n[pos]
		}
		if listed == 0 {
			return
		}
		if bit, buffered := ix.bitOf.lookup(e); buffered {
			classes.set(pos, classBuffered)
			for _, cnt := range c.cnts {
				cnt.n[pos] = uint32(bit)
			}
			return
		}
		// At τ = 1 every key is under the cut: none is computed.
		if cut != math.MaxUint32 {
			hashed++
			if hash.Key32(e, seed) > cut {
				return
			}
		}
		classes.set(pos, classKept)
		for w, cnt := range c.cnts {
			starts[w+1] += int(cnt.n[pos])
			cnt.n[pos], next = next, next+cnt.n[pos]
		}
		lists++
	})
	for w := 1; w < len(starts); w++ {
		starts[w] += starts[w-1]
	}
	total := starts[len(c.cnts)]
	keys, offsets, complete, err := ix.arena.layout(m, total)
	if err != nil {
		return err
	}
	ix.elementsHashed.Add(uint64(hashed + total)) // the fill pass hashes what is kept

	slab := make([]int32, total)
	ix.bufArena.init(m, h)
	ix.bufCols.init(m, h)
	runParallel(len(c.parts), len(c.parts), func(w int) {
		cnt, at, rec := c.cnts[w], starts[w], []hash.Element(nil)
		for i := c.parts[w].lo; i < c.parts[w].hi; i++ {
			rec = ix.recs.AppendRecord(rec[:0], i)
			run, whole := at, true
			for _, e := range rec {
				switch pos := cnt.slot(e); classes.of(pos) {
				case classKept:
					keys[at] = hash.Key32(e, seed)
					at++
					slab[cnt.n[pos]] = int32(i)
					cnt.n[pos]++
				case classBuffered:
					bit := int(cnt.n[pos])
					ix.bufArena.set(i, bit)
					ix.bufCols.set(bit, i)
				case classDropped:
					whole = false
				}
			}
			// Sorting the filtered multiset is exactly gkmv.BuildHashes.
			slices.Sort(keys[run:at])
			offsets[i+1], complete[i] = uint32(at), whole
		}
	})
	// The last worker's cursors stop where each list ends.
	ix.postings.lay(slab, lists, func(list func(e hash.Element, end uint32)) {
		last.each(func(pos int, e hash.Element) {
			if classes.of(pos) == classKept {
				list(e, last.n[pos])
			}
		})
	})

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

// elemCounters is one uint32 per element, at a fixed position. Element ids
// handed out by a Vocabulary are dense, and then the counters are a flat
// array indexed by id: on 20 000 records / 1.3 M occurrences at τ = 1 the
// inverted lists derive in 21 ms with it and 88 ms through a Go map, and a
// restart's CPU time is this loop. Where ids are sparse against the records
// at hand (a small collection over a large vocabulary, or arbitrary 64-bit ids)
// the array would dwarf them, and an elemTable from element to position in a
// packed array takes over.
type elemCounters struct {
	n     []uint32
	index *elemTable     // sparse ids only: element → position in n
	elems []hash.Element // sparse ids only: position → element
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
	t := newElemTable(1 << 12)
	return &elemCounters{index: &t}
}

// slot returns e's position, creating its counter at zero.
func (c *elemCounters) slot(e hash.Element) int {
	if c.index == nil {
		return int(e)
	}
	pos, ok := c.index.lookup(e)
	if !ok {
		pos = len(c.n)
		c.index.set(e, pos)
		c.elems = append(c.elems, e)
		c.n = append(c.n, 0)
	}
	return pos
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
