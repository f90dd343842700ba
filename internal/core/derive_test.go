package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// Tests for the one derivation path: what BuildIndex computes, what Load
// computes from a snapshot of it, and what Load computes from a snapshot
// taken after inserts have shrunk the threshold are the same function of
// (records, E_H, τ, seed) — compared field by field, and against the
// sequential seed algorithm of build_test.go.

// sameDerived asserts that two indexes hold the same inputs and the same
// derived state, bit for bit.
func sameDerived(t *testing.T, got, want *Index, label string) {
	t.Helper()
	if got.cut != want.cut || got.bufferBits != want.bufferBits || got.budget != want.budget {
		t.Fatalf("%s: (cut, r, budget) = (%d, %d, %d), want (%d, %d, %d)", label,
			got.cut, got.bufferBits, got.budget, want.cut, want.bufferBits, want.budget)
	}
	if !slices.Equal(got.bufferElems, want.bufferElems) {
		t.Fatalf("%s: E_H differs", label)
	}
	// The stores are compared by content: where a row lies follows how an
	// index grew — one slab from derive, chunks from inserts — not what it holds.
	if got.recs.Len() != want.recs.Len() || got.keys != want.keys || got.bufArena.stride != want.bufArena.stride {
		t.Fatalf("%s: %d records, %d keys, stride %d; want %d, %d, %d", label, got.recs.Len(), got.keys, got.bufArena.stride,
			want.recs.Len(), want.keys, want.bufArena.stride)
	}
	for i := 0; i < want.recs.Len(); i++ {
		if g, w := got.summaryOf(i), want.summaryOf(i); g != w {
			t.Fatalf("%s: record %d: summary %+v, want %+v", label, i, g.gkmv(), w.gkmv())
		}
		if want.bufArena.stride > 0 && !slices.Equal(got.bufArena.record(i), want.bufArena.record(i)) {
			t.Fatalf("%s: record %d: buffer words differ", label, i)
		}
	}
	// The lists are compared element by element: where a list lies — a slab
	// run, tail blocks — follows how an index grew, not what it holds.
	gotLists, wantLists := listsOf(t, got), listsOf(t, want)
	if len(gotLists) != len(wantLists) {
		t.Fatalf("%s: %d elements listed, want %d", label, len(gotLists), len(wantLists))
	}
	for e, ids := range wantLists {
		if !slices.Equal(gotLists[e], ids) {
			t.Fatalf("%s: the inverted list of element %d differs", label, e)
		}
	}
	// Columns are compared by content: which chunk a block lies in follows
	// how an index grew, not what it holds.
	for bit := range want.bufferElems {
		if !slices.Equal(columnIDs(t, got, bit), columnIDs(t, want, bit)) {
			t.Fatalf("%s: the column of bit %d differs", label, bit)
		}
	}
	if g, w := got.IndexSizeBytes(), want.IndexSizeBytes(); g != w {
		t.Fatalf("%s: IndexSizeBytes = %d, want %d", label, g, w)
	}
}

// listsOf reads every inverted list of ix — its run, then its tail's blocks —
// by element. It fails the test on a list that is empty or not strictly
// ascending, on an element the index does not find at its own header, and on
// counts that disagree with the headers.
func listsOf(t *testing.T, ix *Index) map[hash.Element][]int32 {
	t.Helper()
	p := &ix.postings
	lists, slabbed, slots := map[hash.Element][]int32{}, 0, 0
	for l := 0; l < p.heads.Len(); l++ {
		h := p.heads.Ptr(l)
		if h.n+h.tn == 0 {
			continue
		}
		if p.find(h.e) != h {
			t.Fatalf("element %d does not find its own list %d", h.e, l)
		}
		ids := p.appendIDs(nil, h)
		if len(ids) == 0 || !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) || h.top != ids[len(ids)-1] {
			t.Fatalf("element %d: list %v, largest id %d in the header", h.e, ids, h.top)
		}
		if got, want := p.listSlots(h), gapSlots(ids); got != want {
			t.Fatalf("element %d: %v takes %d slots, its gaps %d", h.e, ids, got, want)
		}
		lists[h.e], slabbed, slots = ids, slabbed+int(h.n), slots+gapSlots(ids)
	}
	indexed := 0
	for _, l := range p.index {
		if l != 0 {
			indexed++
		}
	}
	if len(lists) != p.live || len(lists) != indexed || slabbed != p.slabLive || slots != p.slots {
		t.Fatalf("%d lists (%d slots, %d in the slab), counted %d live, %d in the index, %d slots, %d in the slab", len(lists), slots, slabbed, p.live, indexed, p.slots, p.slabLive)
	}
	return lists
}

// gapSlots returns the slots the gaps of ids take: one a gap, three a gap of
// 2¹⁶ or more.
func gapSlots(ids []int32) int {
	n, prev := 0, int32(-1)
	for _, id := range ids {
		if n++; uint32(id-prev) >= 1<<16 {
			n += 2
		}
		prev = id
	}
	return n
}

// snapshot returns ix's Save bytes.
func snapshot(t *testing.T, ix *Index, label string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("%s: save: %v", label, err)
	}
	return buf.Bytes()
}

func reload(t *testing.T, ix *Index, label string) *Index {
	t.Helper()
	first := snapshot(t, ix, label)
	loaded, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("%s: load: %v", label, err)
	}
	if !bytes.Equal(first, snapshot(t, loaded, label+", reloaded")) {
		t.Fatalf("%s: save → load → save changed the bytes", label)
	}
	return loaded
}

// TestDeriveBuildLoadIdentity: a build that reads its records from the
// caller's slices (BuildIndex), a build that decodes them from a store packed
// beforehand (BuildPacked with no slices, the path of a RecordBuilder's
// corpus) and a load of either's snapshot derive the same index — every
// summary, list, buffer row and column, τ and r — and write the same bytes,
// at every worker count; so do the three after the same inserts. The slice
// build keeps only its packed copy: its caller's records are overwritten as
// soon as it returns, and it still matches the others.
func TestDeriveBuildLoadIdentity(t *testing.T) {
	defer func() { forcedBuildWorkers = 0 }()
	// Dense ids are a vocabulary's: the flat counters. Sparse ones take the
	// table: every record cut down to its last four elements leaves fewer
	// occurrences than the id space is wide, and the inserts arrive as
	// 64-bit ids no array could be sized by, the largest among them.
	type corpus struct {
		name         string
		base, extras []dataset.Record
		universe     int
		dense        bool
	}
	corpora := func(seed int64) []corpus {
		d, extra := buildTestDataset(t, seed, 260), buildTestDataset(t, seed+1, 60)
		sparse := corpus{name: "sparse", universe: d.Universe}
		for _, r := range d.Records {
			sparse.base = append(sparse.base, r[len(r)-4:])
		}
		for j, r := range extra.Records {
			wide := slices.Clone(r[:4])
			for i := range wide {
				wide[i] |= 1 << 40
			}
			if j%3 == 0 {
				wide = append(wide, ^hash.Element(0))
			}
			sparse.extras = append(sparse.extras, wide)
		}
		return []corpus{{"dense", d.Records, extra.Records, d.Universe, true}, sparse}
	}
	shrunk := map[string]int{} // budget → configurations whose inserts shrank τ at least twice
	for _, seed := range []int64{21, 1234} {
		for _, c := range corpora(seed) {
			total := 0
			for _, r := range c.base {
				total += len(r)
			}
			budgets := map[string]Options{
				"tau1":    {BudgetUnits: 8 * total},
				"default": {},
				"tight":   {BudgetUnits: 300},
			}
			for bname, opt := range budgets {
				for _, r := range []int{NoBuffer, 64, AutoBuffer} {
					opt.BufferBits, opt.Seed = r, uint64(seed)
					var first, firstGrown *Index
					for _, w := range []int{1, 2, 3, 8} {
						label := fmt.Sprintf("seed %d, %s ids, %s budget, r=%d, %d workers", seed, c.name, bname, r, w)
						forcedBuildWorkers = w
						build := func() *Index {
							records := make([]dataset.Record, len(c.base))
							for i, rec := range c.base {
								records[i] = slices.Clone(rec)
							}
							ix, err := BuildIndex(&dataset.Dataset{Records: records, Universe: c.universe}, opt)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							for _, rec := range records {
								for j := range rec {
									rec[j] = hash.Element(j)
								}
							}
							return ix
						}
						ix := build()
						if denseIDs(ix.recs.Top(), ix.recs.Elements()) != c.dense {
							t.Fatalf("%s: the fixture takes the other counter layout", label)
						}
						if first == nil {
							first = ix
							if (ix.Tau() == 1) != (bname == "tau1") {
								t.Fatalf("%s: τ = %v", label, ix.Tau())
							}
							checkAgainstRef(t, ix, refBuild(ix, refCut(ix)), label+", built")
						}
						sameDerived(t, ix, first, label+", built")
						sameDerived(t, reload(t, ix, label), first, label+", built and reloaded")
						recs, err := snapfmt.PackRecords(c.base, w)
						if err != nil {
							t.Fatal(err)
						}
						packed, err := BuildPacked(recs, opt)
						if err != nil {
							t.Fatalf("%s, built from the store: %v", label, err)
						}
						sameDerived(t, packed, first, label+", built from the store")
						if !bytes.Equal(snapshot(t, packed, label), snapshot(t, ix, label)) {
							t.Fatalf("%s: the builds from the store and from the slices save different bytes", label)
						}

						ix = build() // first stays as built
						ix.AddRecords(c.extras)
						packed.AddRecords(c.extras)
						sameDerived(t, packed, ix, label+", built from the store and grown")
						if _, shrinks := ix.BuildCounters(); shrinks >= 2 {
							shrunk[bname]++
						}
						grown := reload(t, ix, label+", grown")
						sameDerived(t, grown, ix, label+", grown and reloaded")
						if firstGrown == nil {
							firstGrown = grown
							checkAgainstRef(t, grown, refBuild(grown, grown.cut), label+", grown and reloaded")
						}
						sameDerived(t, grown, firstGrown, label+", grown and reloaded")
					}
				}
			}
		}
	}
	if shrunk["default"] == 0 || shrunk["tight"] == 0 {
		t.Fatalf("configurations with several shrinks, by budget: %v; the fixture does not reach a full budget", shrunk)
	}
}

// damagedCopy saves ix's inputs after mutate has had them and returns the
// stream.
func damagedCopy(t *testing.T, ix *Index, mutate func(*Index)) []byte {
	t.Helper()
	cp := &Index{
		opt: ix.opt, recs: ix.recs, bufferElems: ix.bufferElems,
		cut: ix.cut, bufferBits: ix.bufferBits, budget: ix.budget,
	}
	mutate(cp)
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsInconsistentHeader: with no stored sketch to validate, what
// a stream can still get wrong about its own sketch is r — against E_H, and
// against the budget.
func TestLoadRejectsInconsistentHeader(t *testing.T) {
	ix, err := BuildIndex(testDataset(t, 40), Options{BudgetFraction: 0.2, BufferBits: 40, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	resave := func(mutate func(*Index)) error {
		_, err := Load(bytes.NewReader(damagedCopy(t, ix, mutate)))
		if err != nil && !errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("damaged index rejected with %v, want snapfmt.ErrCorrupt", err)
		}
		return err
	}
	if err := resave(func(*Index) {}); err != nil {
		t.Fatalf("undamaged copy rejected: %v", err)
	}
	if err := resave(func(w *Index) { w.bufferElems = make([]hash.Element, w.bufferBits+1) }); err == nil {
		t.Error("more buffered elements than buffer bits accepted")
	}
	if err := resave(func(w *Index) { w.bufferBits = BufferUnitBits * w.budget }); err == nil {
		t.Error("a buffer that costs one record the whole budget accepted")
	}
	if err := resave(func(w *Index) { w.bufferBits = 1 << 40 }); err == nil {
		t.Error("a buffer of 2⁴⁰ bits accepted")
	}
}

// TestLoadAllocatesByWhatItRead: r and the budget are numbers a stream
// declares and no section backs, each the other's only check. A stream that
// lies about both — by itself or one record long, with E_H or without — loads
// as the index it describes (r is what the budget charges, nothing more) in
// memory proportional to the bytes it has, not to the r it claims.
func TestLoadAllocatesByWhatItRead(t *testing.T) {
	ix, err := BuildIndex(testDataset(t, 40), Options{BudgetFraction: 0.2, BufferBits: 40, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	const r, budget = 1<<31 - 8, 1 << 30
	for name, mutate := range map[string]func(*Index){
		"as built":          func(*Index) {},
		"garbage r, budget": func(w *Index) { w.bufferBits, w.budget = r, budget },
		"one record, no E_H": func(w *Index) {
			w.bufferBits, w.budget, w.bufferElems = r, budget, nil
			w.recs = snapfmt.PackedRecords{}
			w.recs.Append(ix.Record(0))
		},
	} {
		stream := damagedCopy(t, ix, mutate)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Load(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocated, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<18+32*len(stream)); allocated > bound {
			t.Errorf("%s: loading %d bytes allocated %d, bound %d", name, len(stream), allocated, bound)
		}
		if h := len(got.bufferElems); got.bufCols.width != h || got.bufCols.rows.Len()*h != blockWords(got.NumRecords(), h) || got.bufArena.stride != (h+7)/8 {
			t.Errorf("%s: %d column blocks of %d words, %d bytes a record for %d buffered elements",
				name, got.bufCols.rows.Len(), got.bufCols.width, got.bufArena.stride, h)
		}
		q := ix.Record(3)
		if want := ix.Search(q, 0.5); name != "one record, no E_H" && !slices.Equal(got.Search(q, 0.5), want) {
			t.Errorf("%s: search answers %v, the index it was copied from %v", name, got.Search(q, 0.5), want)
		}
	}
}

// TestBufferRowsAreWhatTheBudgetCharges: a record's buffer row is
// ⌈|E_H|/8⌉ bytes, never padded to a word, so the buffers cost at most the
// r/8 bytes a record the budget charges them — 4 bytes a unit, as the keys —
// built, grown by inserts and reloaded, at r a multiple of 64 and not. Every
// row reads back the bits of its record, through the overlap kernel too.
func TestBufferRowsAreWhatTheBudgetCharges(t *testing.T) {
	d := testDataset(t, 120)
	for _, r := range []int{8, 64, 72, 200} {
		ix, err := BuildIndex(&dataset.Dataset{Records: d.Records[:100], Universe: d.Universe},
			Options{BudgetUnits: 100000, BufferBits: r, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		h := len(ix.bufferElems)
		if ix.BufferBits() != r || h != r {
			t.Fatalf("r = %d: built with r = %d, |E_H| = %d", r, ix.BufferBits(), h)
		}
		reloaded := reload(t, ix, "built")
		for _, stage := range []string{"built", "grown"} {
			if stage == "grown" {
				ix.AddRecords(d.Records[100:])
				reloaded = reload(t, ix, "grown")
			}
			for name, got := range map[string]*Index{stage: ix, stage + ", reloaded": reloaded} {
				m := got.NumRecords()
				if got.BufferSizeBytes() != m*((h+7)/8) || got.BufferSizeBytes() > 4*bufferUnits(m, r) {
					t.Errorf("r = %d, %s: %d buffer bytes for %d records, want %d = m·⌈|E_H|/8⌉, at most 4·%d units",
						r, name, got.BufferSizeBytes(), m, m*((h+7)/8), bufferUnits(m, r))
				}
				for i, rec := range recordsOf(got) {
					q := got.Sketch(rec)
					held := 0
					for bit, e := range got.bufferElems {
						_, holds := slices.BinarySearch(rec, e)
						if arenaBit(got, i, bit) != holds {
							t.Fatalf("r = %d, %s: record %d, bit %d: set %v, held %v", r, name, i, bit, !holds, holds)
						}
						if holds {
							held++
						}
					}
					if overlap := got.bufferOverlap(q, i); overlap != held {
						t.Fatalf("r = %d, %s: record %d overlaps its own buffer in %d bits, holds %d", r, name, i, overlap, held)
					}
				}
			}
		}
	}
}

// TestBufferWiderThanVocabulary: asked for more buffer bits than the records
// have elements, a build charges the budget for r as asked and holds |E_H|
// bits a record, in ⌈|E_H|/8⌉ bytes — the same index after a reload, and an
// exact one.
func TestBufferWiderThanVocabulary(t *testing.T) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 50, Universe: 30, AlphaFreq: 1.1, AlphaSize: 2.2, MinSize: 3, MaxSize: 12,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(d, Options{BudgetUnits: 10000, BufferBits: 256, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	h := len(ix.bufferElems)
	if ix.BufferBits() != 256 || h == 0 || h > 30 {
		t.Fatalf("r = %d, |E_H| = %d", ix.BufferBits(), h)
	}
	if ix.keys != 0 || ix.UsedUnits() != bufferUnits(50, 256) || ix.BufferSizeBytes() != 50*((h+7)/8) {
		t.Fatalf("%d keys, %d units used, %d buffer bytes", ix.keys, ix.UsedUnits(), ix.BufferSizeBytes())
	}
	for i, rec := range recordsOf(ix) {
		for bit, e := range ix.bufferElems {
			if _, holds := slices.BinarySearch(rec, e); arenaBit(ix, i, bit) != holds {
				t.Fatalf("record %d, bit %d (element %d): set %v, held %v", i, bit, e, !holds, holds)
			}
		}
	}
	loaded := reload(t, ix, "reloaded")
	sameDerived(t, loaded, ix, "reloaded")
	loaded.AddRecords(d.Records[:5])
	for _, q := range d.Records[:10] {
		if got, want := loaded.Search(q, 0.6), loaded.SearchLinear(q, 0.6); !slices.Equal(got, want) {
			t.Fatalf("search %v, linear scan %v", got, want)
		}
	}
}
