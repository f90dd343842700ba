package core

import (
	"runtime"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// TestAddRecordsGrowthAllocatesWhatItStores: inserts into an index with budget
// headroom (τ stays 1, nothing is evicted) allocate what the index grows by —
// keys, record codings, buffer rows, offsets, flags, inverted lists — and not
// the several times that of stores regrown by append: every per-record store
// and every posting list grows a chunk or a block at a time and copies
// nothing, so what the arenas allocated is the capacity of their chunks,
// within a chunk of what they hold. What is over in the total is the room and
// links of the lists' tail blocks and the chunks' slack (DESIGN.md "One
// growth rule"). Over slices grown by append this loop allocated 4.48× its
// growth, with the posting lists in Go maps of doubling slices 1.76×, with
// 32-bit ids and bit columns re-strided every eighth of growth 1.28×; it reads
// 1.12×.
func TestAddRecordsGrowthAllocatesWhatItStores(t *testing.T) {
	skipAllocsUnderRace(t)
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 20000, Universe: 50000, AlphaFreq: 1.1, AlphaSize: 2.35, MinSize: 20, MaxSize: 500,
	}, 91)
	if err != nil {
		t.Fatal(err)
	}
	base := &dataset.Dataset{Records: d.Records[:5000]}
	ix, err := BuildIndex(base, Options{BudgetUnits: 8 * d.TotalElements(), BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	size := func() int {
		return ix.SketchSizeBytes() + ix.RecordSizeBytes() + ix.BufferSizeBytes() + ix.IndexSizeBytes()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := size()
	for i := 5000; i < len(d.Records); i += 4 {
		ix.AddRecords(d.Records[i : i+4])
	}
	runtime.ReadMemStats(&after)
	grown, allocated := size()-held, int(after.TotalAlloc-before.TotalAlloc)
	t.Logf("%d inserts grew the index by %d bytes and allocated %d: %.2f×", len(d.Records)-5000, grown, allocated, float64(allocated)/float64(grown))
	if _, shrinks := ix.BuildCounters(); shrinks != 0 || ix.Tau() != 1 {
		t.Fatalf("the fixture left its headroom (τ = %v, %d shrinks)", ix.Tau(), shrinks)
	}
	if float64(allocated) > 1.13*float64(grown) {
		t.Errorf("%d bytes allocated for %d of growth: %.2f×, want ≤ 1.13×", allocated, grown, float64(allocated)/float64(grown))
	}
	if keys, stored := arenaKeyCapacity(ix), ix.arena.units(); keys > stored+chunkKeys {
		t.Errorf("the arena's chunks have room for %d keys and hold %d: over by more than a chunk", keys, stored)
	}
}

// chunkKeys is the keys a growth chunk of the arena holds.
const chunkKeys = 64 << 10 / 4

// arenaKeyCapacity returns the keys the arena's chunks have room for: what it
// has allocated, since it never copies to grow.
func arenaKeyCapacity(ix *Index) int {
	n := 0
	for _, chunk := range ix.arena.keys.Chunks() {
		n += cap(chunk)
	}
	return n
}

// TestAddRecordsShrinkReleasesChunks: a threshold shrink compacts the arena
// chunk by chunk and lets go of the chunks it empties. An index built at τ = 1
// with headroom fills its budget with keys, then gives them up to the buffers
// of ten times its records (four units a record, whatever τ): the arena falls
// to under half its peak, and at every step its chunks have room for what is stored,
// the tail no run fitted of each chunk, and at most one chunk more. (A slice
// cut back by a.keys[:w] kept its peak for life.)
func TestAddRecordsShrinkReleasesChunks(t *testing.T) {
	d := buildTestDataset(t, 93, 15000)
	base := &dataset.Dataset{Records: d.Records[:1200]}
	ix, err := BuildIndex(base, Options{BudgetUnits: 100000, BufferBits: 128, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tau() != 1 {
		t.Fatalf("the fixture is built at τ = %v, want headroom", ix.Tau())
	}
	built, peak := arenaKeyCapacity(ix), 0
	for i := 1200; i < len(d.Records); i += 3 {
		ix.AddRecords(d.Records[i : i+3])
		keys, stored, chunks := arenaKeyCapacity(ix), ix.arena.units(), len(ix.arena.keys.Chunks())
		if keys > stored+chunkKeys+chunks*250 { // no run of the fixture is longer than its longest record
			t.Fatalf("after %d records: chunks with room for %d keys hold %d (%d chunks)", i+3, keys, stored, chunks)
		}
		peak = max(peak, keys)
	}
	_, shrinks := ix.BuildCounters()
	t.Logf("τ = %.3f after %d shrinks: %d keys stored, room for %d (built with %d, peak %d)", ix.Tau(), shrinks, ix.arena.units(), arenaKeyCapacity(ix), built, peak)
	if stored := ix.arena.units(); shrinks < 10 || stored < built || 3*arenaKeyCapacity(ix) > 2*peak {
		t.Fatalf("%d shrinks, %d keys stored, built with %d, peak %d: the fixture did not shrink hard from a peak", shrinks, stored, built, peak)
	}
	sameDerived(t, reload(t, ix, "shrunk"), ix, "shrunk")
}

// TestAddRecordsGrownEqualsBuilt: an index grown record by record across many
// chunk boundaries of every store — with a record whose key run and whose
// coding are each longer than a chunk, empty records, and threshold shrinks
// from part-way on that compact the long run out of its own chunk — is the
// index derived at once from the same records, E_H and τ (a load of its
// snapshot, whose stores are single slabs): the same snapshot bytes, units and
// τ, and the same answers with every record as the query.
func TestAddRecordsGrownEqualsBuilt(t *testing.T) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 1400, Universe: 200000, AlphaFreq: 1.05, AlphaSize: 2.3, MinSize: 30, MaxSize: 400,
	}, 97)
	if err != nil {
		t.Fatal(err)
	}
	long := make(dataset.Record, 70000) // the rare end of the universe: few queries reach it
	for i := range long {
		long[i] = hash.Element(200000 - len(long) + i)
	}
	base := &dataset.Dataset{Records: d.Records[:200]}
	inserts := slices.Clone(d.Records[200:])
	inserts[10], inserts[11], inserts[900] = long, dataset.Record{}, dataset.Record{}
	budget := 0
	for _, rec := range inserts[:700] {
		budget += len(rec)
	}
	for _, r := range []int{NoBuffer, 192} { // 192 bits: buffer rows of three words, which no chunk holds a whole number of
		grown, err := BuildIndex(base, Options{BudgetUnits: base.TotalElements() + budget, BufferBits: r, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range inserts {
			grown.AddRecords([]dataset.Record{rec})
			if i == 20 {
				if run := len(grown.arena.view(200 + 10).Keys()); grown.Tau() != 1 || run <= chunkKeys {
					t.Fatalf("r=%d: the long record's run holds %d keys at τ = %v, want more than a chunk's %d", r, run, grown.Tau(), chunkKeys)
				}
				sameDerived(t, reload(t, grown, "before any shrink"), grown, "before any shrink")
			}
		}
		_, shrinks := grown.BuildCounters()
		if chunks := len(grown.arena.keys.Chunks()); shrinks < 5 || chunks < 6 {
			t.Fatalf("r=%d: %d shrinks, %d key chunks: the fixture does not cross enough of either", r, shrinks, chunks)
		}
		built := reload(t, grown, "grown")
		if chunks := len(built.arena.keys.Chunks()); chunks != 1 {
			t.Fatalf("r=%d: the loaded arena is %d chunks, want one slab", r, chunks)
		}
		sameDerived(t, built, grown, "grown")
		if built.UsedUnits() != grown.UsedUnits() || built.Tau() != grown.Tau() {
			t.Fatalf("r=%d: (units, τ) = (%d, %v) built, (%d, %v) grown", r, built.UsedUnits(), built.Tau(), grown.UsedUnits(), grown.Tau())
		}
		for i := 0; i < grown.NumRecords(); i++ {
			q := grown.Record(i)
			if got, want := grown.Search(q, 0.5), built.Search(q, 0.5); !slices.Equal(got, want) {
				t.Fatalf("r=%d: query %d: Search = %v grown, %v built", r, i, got, want)
			}
			gs, bs := grown.Sketch(q), built.Sketch(q)
			if got, want := grown.SearchTopKSig(gs, 5), built.SearchTopKSig(bs, 5); !slices.Equal(got, want) {
				t.Fatalf("r=%d: query %d: top-k = %v grown, %v built", r, i, got, want)
			}
			others := []int{i, (i * 7) % grown.NumRecords()}
			if i%50 == 0 {
				others = append(others, 210) // the long record: 40 000 keys to merge
			}
			for _, j := range others {
				if got, want := grown.EstimateContainment(gs, j), built.EstimateContainment(bs, j); got != want {
					t.Fatalf("r=%d: C(record %d, record %d) = %v grown, %v built", r, i, j, got, want)
				}
			}
		}
	}
}
