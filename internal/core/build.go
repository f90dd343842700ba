package core

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// This file is the one place an index's derived state is computed. A GB-KMV
// index is a function of (records, E_H, τ, seed) — Algorithm 1 — and derive
// is that function: build calls it once τ is chosen, Load calls it on what a
// snapshot carries (the same four inputs, nothing else), and both get the
// same bits. An element's key depends on the element alone, so the work
// follows distinct elements wherever it can and occurrences only where it
// must (DESIGN.md "Derive, don't store" has the measured stages):
//
//	countElements  one read of every record, a span of them a worker: how
//	               many records of the span list each element
//	selectCut      build only: τ as an exact order statistic of the
//	               non-buffered occurrence keys, from one hash and one
//	               (key, count) pair a distinct element
//	derive         classify every element once — buffered, kept or dropped —
//	               turn the counts of kept elements into write cursors, and
//	               fill: read every record again, hash each kept occurrence
//	               into its record's summary, write the record's id at its
//	               element's cursor, set the buffered bits
//
// Both reads go through a recordSource: the caller's slices in a build handed
// them (BuildIndex, behind NewEngine and Build), and the packed store,
// decoded a record at a time, where there are none (a build from a
// RecordBuilder's corpus, a load).
//
// A build from slices packs the store the index keeps beside the build, not
// in front of it. Its counting pass also checks that each record is strictly
// ascending and sums the bits of its gaps' codings; a record that is not is
// refused there, before anything else runs. pack then lays the store out
// from those sizes and codes the records into it on goroutines of their own,
// which run beside the serial stages that follow — the frequency table, the
// cost model, E_H, τ and derive's classify — and then beside the fill; the
// build waits for them before it returns, on every path, errors included, so
// nothing reads the caller's slices once it has returned.
//
// Every pass runs over contiguous record ranges, one per worker, and is
// deterministic in the record order alone: range boundaries, worker counts
// and the source never influence τ, a summary, a list or a stored byte (the
// differential tests in build_test.go, derive_test.go and records_test.go
// pin this bit for bit).

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

// tauBucketBits sets the histogram resolution of a selection: 2^tauBucketBits
// buckets over the key space. Keys are uniform on it, so the target bucket
// holds ~n/4096 of the keys a selection counts over the whole space — and
// more, as a shrink's keys lie under the cut alone.
const tauBucketBits = 12

// kthSelector selects order statistics of weighted key multisets; what it
// keeps between calls is its working memory: the bucket histogram, the
// target bucket's pairs and, for the index's threshold shrinks, the listed
// elements' pairs. The build selects once with a throw-away selector; the
// index keeps one for its shrinks.
type kthSelector struct {
	hist         []int
	pairs, cands []keyCount
}

// keyCount is a key and how many times a multiset holds it.
type keyCount struct{ key, n uint32 }

// kthWeighted returns the k-th smallest key (1-based) of the multiset
// {key × n} of the pairs, and MaxUint32 — the threshold that keeps every
// key — for a k past its size. A pair adds its count to its bucket, the
// key's top tauBucketBits bits (one shift: a division here doubled the cost
// of a saturated insert), and only the target bucket's pairs are sorted by
// key and their counts walked to the k-th. Its cost follows the pairs, not
// the multiset.
func (s *kthSelector) kthWeighted(pairs []keyCount, k int) uint32 {
	const shift = 32 - tauBucketBits
	if s.hist == nil {
		s.hist = make([]int, 1<<tauBucketBits)
	}
	clear(s.hist)
	for _, p := range pairs {
		s.hist[p.key>>shift] += int(p.n)
	}
	target, before := -1, 0
	for b, in := range s.hist {
		if before+in >= k {
			target = b
			break
		}
		before += in
	}
	if target < 0 {
		return math.MaxUint32
	}
	cands := s.cands[:0]
	for _, p := range pairs {
		if int(p.key>>shift) == target && p.n > 0 {
			cands = append(cands, p)
		}
	}
	s.cands = cands
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
// {key(e) × freq(e)} and the frequency table the buffer was chosen from
// already holds it: each distinct non-buffered element is hashed once, and
// its key and frequency are one pair of kthWeighted.
func (ix *Index) selectCut(freq []int, at *elemCounters, k int) uint32 {
	distinct := 0
	for _, f := range freq {
		if f > 0 {
			distinct++
		}
	}
	pairs := make([]keyCount, 0, distinct)
	for pos, f := range freq {
		if f == 0 {
			continue
		}
		e := at.element(pos)
		if _, buffered := ix.bitOf.lookup(e); !buffered {
			pairs = append(pairs, keyCount{hash.Key32(e, ix.opt.Seed), uint32(f)})
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

// recordSource is where the counting pass and derive read the records: the
// caller's slices in a build handed them, the store otherwise (a build from a
// RecordBuilder's corpus, a load). Either way record i holds the same
// elements.
type recordSource struct {
	packed *snapfmt.PackedRecords // nil: read slices
	slices []dataset.Record
}

// record returns record i: the caller's slice, or decoded into *buf. It is
// read, never written.
func (s recordSource) record(buf *[]hash.Element, i int) []hash.Element {
	if s.packed == nil {
		return s.slices[i]
	}
	*buf = s.packed.AppendRecord((*buf)[:0], i)
	return *buf
}

// size returns the number of elements of record i, without decoding it.
func (s recordSource) size(i int) int {
	if s.packed == nil {
		return len(s.slices[i])
	}
	return s.packed.RecordLen(i)
}

// len returns the number of records.
func (s recordSource) len() int {
	if s.packed == nil {
		return len(s.slices)
	}
	return s.packed.Len()
}

// shape returns the records' largest element and their element occurrences:
// the store's, or read off the slices' lengths and last elements — a
// record's last element is its largest once the counting pass has found it
// ascending.
func (s recordSource) shape() (top hash.Element, occurrences int) {
	if s.packed != nil {
		return s.packed.Top(), s.packed.Elements()
	}
	for _, rec := range s.slices {
		if len(rec) > 0 {
			occurrences, top = occurrences+len(rec), max(top, rec[len(rec)-1])
		}
	}
	return top, occurrences
}

// elementCounts is what the counting pass reads of the records: its source,
// the records in spans, one a worker, every boundary but the last a multiple
// of 64 records, and per span one set of element counters — how many of the
// span's records list each element. A count of slices also sizes every
// record's coding in layout, and notes unsorted, 1 + the first record that is
// not strictly ascending (0 when all are).
type elementCounts struct {
	src         recordSource
	top         hash.Element
	occurrences int
	parts       []span
	cnts        []*elemCounters
	layout      *snapfmt.Layout
	unsorted    int
}

// countElements is the counting pass of a build and of a load, one read of
// every record: each worker counts its span's occurrences into its own
// counters. A build sums the counters into its frequency table (frequencies)
// and hands them on to derive; a load hands them to derive at once. Reading
// slices, a worker also checks that each record is strictly ascending and
// measures its coding as it counts it, so that the store is laid out (pack)
// with no read of its own; it stops at the first record that is not.
func countElements(src recordSource) elementCounts {
	m := src.len()
	top, occurrences := src.shape()
	c := elementCounts{src: src, top: top, occurrences: occurrences,
		parts: spans(m, deriveWorkers(m, top, occurrences), bufWordBits)}
	c.cnts = make([]*elemCounters, len(c.parts))
	unsorted := make([]int, len(c.parts))
	if src.packed == nil {
		c.layout = snapfmt.NewLayout(m)
	}
	runParallel(len(c.parts), len(c.parts), func(w int) {
		cnt, sp := newElemCounters(top, occurrences), c.parts[w]
		c.cnts[w] = cnt
		if src.packed == nil {
			unsorted[w] = cnt.countSlices(src.slices, sp, c.layout)
			return
		}
		var buf []hash.Element
		for i := sp.lo; i < sp.hi; i++ {
			for _, e := range src.record(&buf, i) {
				cnt.n[cnt.slot(e)]++
			}
		}
	})
	for _, u := range unsorted {
		if u > 0 {
			c.unsorted = u
			break
		}
	}
	return c
}

// countSlices counts the elements of records sp of recs and sets each one's
// coding size in l, summing its gaps' bits on the way. It returns 1 + the
// first record that is not strictly ascending, where it stops, or 0.
func (cnt *elemCounters) countSlices(recs []dataset.Record, sp span, l *snapfmt.Layout) int {
	for i := sp.lo; i < sp.hi; i++ {
		nbits, prev := 0, hash.Element(0)
		for j, e := range recs[i] {
			// An element past the dense counters is past every record's last
			// element: its own record does not ascend to it.
			pos := cnt.slot(e)
			if j > 0 && e <= prev || uint(pos) >= uint(len(cnt.n)) {
				return i + 1
			}
			cnt.n[pos]++
			nbits += snapfmt.GapBits(uint64(e - prev))
			prev = e
		}
		l.SetSize(i, len(recs[i]), nbits)
	}
	return 0
}

// pack returns the store the index keeps. A count of the store hands it on as
// it is. A count of slices lays it out and codes it on buildWorkers(m) − 1
// goroutines (one at least) beside the rest of the build — the cost model,
// E_H, τ and derive, whose serial stages leave the other cores idle — and
// wait returns once every record is coded: the build calls it before it
// returns, on every path, so no goroutine reads the caller's slices after.
func (c *elementCounts) pack() (recs snapfmt.PackedRecords, wait func(), err error) {
	if c.layout == nil {
		return *c.src.packed, func() {}, nil
	}
	if err := c.layout.Place(c.occurrences, c.top); err != nil {
		return snapfmt.PackedRecords{}, nil, err
	}
	m := c.src.len()
	var wg sync.WaitGroup
	for _, sp := range spans(m, max(1, buildWorkers(m)-1), 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.layout.Code(c.src.slices, sp.lo, sp.hi)
		}()
	}
	return c.layout.Store(), wg.Wait, nil
}

// frequencies sums the counters by position, the way derive reads them:
// freq[pos] is the number of records listing the element at pos, and at
// names it (every worker's counters agree on positions). Positions are the
// ids where ids are dense and first come, first served where they are
// sparse, so the table is sized by the records' occurrences, never by their
// largest id.
func (c elementCounts) frequencies() (freq []int, at *elemCounters) {
	at = c.cnts[len(c.cnts)-1]
	freq = make([]int, len(at.n))
	for _, cnt := range c.cnts {
		for pos, n := range cnt.n {
			freq[pos] += int(n)
		}
	}
	return freq, at
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

// A position indexes the table unsigned: signed, its division, modulo and
// shift each take a fix-up for negative values, on every occurrence the fill
// reads — a quarter of the fill's time on paper-batch's corpus.
func (t classTable) set(pos int, class uint64) { t[uint(pos)/32] |= class << (uint(pos) % 32 * 2) }

func (t classTable) of(pos int) uint64 { return t[uint(pos)/32] >> (uint(pos) % 32 * 2) & 3 }

// derive computes everything an index holds beyond its inputs — the records,
// E_H (bufferElems, bitOf), the cut and the seed — from the counting pass's
// counters, as one counting sort:
//
//	classify  per element position: buffered, kept or dropped — one hash a
//	          distinct non-buffered element, none at τ = 1. A buffered
//	          element's counters now hold its buffer bit; a kept element's
//	          become write cursors into one exactly sized slab of record ids,
//	          laid out element by element and, within one, worker by worker
//	fill      per record, read again: its buffered elements set their bits
//	          in the buffer arena and in the bit columns, its kept ones are
//	          hashed into its summary — how many, the largest key — and its
//	          id is written at their cursors; a dropped one makes the summary
//	          incomplete
//	lay       the slab's lists coded as gaps (postingLists.lay): in place when
//	          the ids are 16-bit, which every collection of fewer than
//	          smallIDs records has; from 32-bit ids into a slab of its own
//	          otherwise, since a gap of 2¹⁶ or more takes three slots
//
// Workers own the counting pass's record ranges, so every list comes out
// ascending by record id, whatever the worker count. Ranges start on
// multiples of 64 records, so no two workers share a word of a bit column. An
// occurrence costs the fill pass a test of its element's class, and a hash
// only when it is kept.
//
// Everything per buffer bit — the buffer arena's stride, the bit columns — is
// sized by |E_H|, the bits an element can set, and not by
// r: r is what the budget charges a record, and exceeds |E_H| when the build
// was asked for more bits than its records have elements. Every allocation
// here therefore follows a count of things at hand (records, occurrences,
// buffered elements), which a load was shown element by element; r, a number
// its stream merely declares, sizes nothing.
//
// It fails, before the fill pass, when the kept keys exceed what the posting
// slab's 32-bit positions address.
func (ix *Index) derive(c elementCounts) error {
	m, h := ix.recs.Len(), len(ix.bufferElems)
	seed, cut := ix.opt.Seed, ix.cut
	last := c.cnts[len(c.cnts)-1]
	classes := newClassTable(len(last.n))
	next, total, hashed, lists := uint32(0), 0, 0, 0
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
		for _, cnt := range c.cnts {
			cnt.n[pos], next = next, next+cnt.n[pos]
		}
		total += int(listed)
		lists++
	})
	if err := checkPostingRoom(total); err != nil {
		return err
	}
	ix.keys = total
	sums := ix.sums.Bulk(m)
	ix.elementsHashed.Add(uint64(hashed + total)) // the fill pass hashes what is kept

	var ids16 []uint16
	var ids32 []int32
	if m <= smallIDs {
		ids16 = make([]uint16, total)
	} else {
		ids32 = make([]int32, total)
	}
	ix.bufArena.init(m, h)
	ix.bufCols.init(m, h)
	runParallel(len(c.parts), len(c.parts), func(w int) {
		cnt, buf := c.cnts[w], []hash.Element(nil)
		for i := c.parts[w].lo; i < c.parts[w].hi; i++ {
			k, top, whole, block := 0, uint32(0), true, ix.bufCols.block(i)
			var row []byte // the record's buffer row
			if h > 0 {
				row = ix.bufArena.record(i)
			}
			for _, e := range c.src.record(&buf, i) {
				switch pos := cnt.slot(e); classes.of(pos) {
				case classKept:
					k, top = k+1, max(top, hash.Key32(e, seed))
					if ids16 != nil {
						ids16[cnt.n[pos]] = uint16(i)
					} else {
						ids32[cnt.n[pos]] = int32(i)
					}
					cnt.n[pos]++
				case classBuffered:
					bit := cnt.n[pos]
					row[bit/8] |= 1 << (bit % 8)
					mark(block, int(bit), i)
				case classDropped:
					whole = false
				}
			}
			sums[i] = makeSummary(k, top, whole)
		}
	})
	// The last worker's cursors stop where each list ends.
	return ix.postings.lay(ids16, ids32, lists, func(list func(e hash.Element, end uint32)) {
		last.each(func(pos int, e hash.Element) {
			if classes.of(pos) == classKept {
				list(e, last.n[pos])
			}
		})
	})
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

// slot returns e's position, creating its counter at zero. It inlines to
// the id itself where ids are dense, so the passes' loops over occurrences
// call out only for the table of sparse ids.
func (c *elemCounters) slot(e hash.Element) int {
	if c.index == nil {
		return int(e)
	}
	return c.sparseSlot(e)
}

func (c *elemCounters) sparseSlot(e hash.Element) int {
	pos, ok := c.index.lookup(e)
	if !ok {
		pos = len(c.n)
		c.index.set(e, pos)
		c.elems = append(c.elems, e)
		c.n = append(c.n, 0)
	}
	return pos
}

// element returns the element at position pos.
func (c *elemCounters) element(pos int) hash.Element {
	if c.index == nil {
		return hash.Element(pos)
	}
	return c.elems[pos]
}

// position returns the position of e, an element the records list.
func (c *elemCounters) position(e hash.Element) int {
	if c.index == nil {
		return int(e)
	}
	pos, _ := c.index.lookup(e)
	return pos
}

// each visits every counter's position and element in a fixed order (the
// same on every call).
func (c *elemCounters) each(fn func(pos int, e hash.Element)) {
	for pos := range c.n {
		fn(pos, c.element(pos))
	}
}
