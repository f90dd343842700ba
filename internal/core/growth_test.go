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
// record codings, buffer rows, summaries, inverted lists — and not
// the several times that of stores regrown by append: every per-record store
// and every posting list grows a chunk or a block at a time and copies
// nothing, so what the summary table allocated is the capacity of its chunks,
// within a chunk of what it holds. What is over in the total is the room and
// links of the lists' tail blocks and the chunks' slack (DESIGN.md "One
// growth rule"). Over slices grown by append this loop allocated 4.48× its
// growth, with the posting lists in Go maps of doubling slices 1.76×, with
// 32-bit ids and bit columns re-strided every eighth of growth 1.28×, with
// every key stored a second time, in a key arena, 1.12×. With the keys held
// once, as the lists' entries, the loop allocates 37 % less and the same
// 0.56 MB of tail room over the smaller growth reads 1.19×.
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
		// The keys are the lists' entries: SketchSizeBytes is their charge in
		// the paper's accounting, not memory of its own.
		return ix.RecordSizeBytes() + ix.BufferSizeBytes() + ix.IndexSizeBytes()
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
	if float64(allocated) > 1.2*float64(grown) {
		t.Errorf("%d bytes allocated for %d of growth: %.2f×, want ≤ 1.2×", allocated, grown, float64(allocated)/float64(grown))
	}
	if words, stored := summaryCapacity(ix), ix.sums.Len(); words > stored+chunkWords {
		t.Errorf("the summary table's chunks have room for %d words and hold %d: over by more than a chunk", words, stored)
	}
}

// chunkWords is the summaries a growth chunk of the table holds.
const chunkWords = 64 << 10 / 8

// summaryCapacity returns the summaries the table's chunks have room for:
// what it has allocated, since it never copies to grow.
func summaryCapacity(ix *Index) int {
	n := 0
	for _, chunk := range ix.sums.Chunks() {
		n += cap(chunk)
	}
	return n
}

// TestAddRecordsShrinkReleasesChunks: a threshold shrink compacts the posting
// lists' tails chunk by chunk and lets go of the chunks it empties, and re-lays
// the slab once under half of it is live. An index built at τ = 1 with
// headroom fills its budget with keys, then gives them up to the buffers of
// ten times its records (four units a record, whatever τ): the lists' slots
// fall to under half their peak, and at every step the tails' chunks have room
// for what the blocks take, the tail no block fitted of each chunk, and at
// most one chunk more.
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
	held := func() int { return cap(ix.postings.slab) + tailCapacity(ix) }
	built, peak := held(), 0
	for i := 1200; i < len(d.Records); i += 3 {
		ix.AddRecords(d.Records[i : i+3])
		slots, blocks, chunks := tailCapacity(ix), ix.postings.tails.Len(), len(ix.postings.tails.Chunks())
		if slots > blocks+chunkSlots+chunks*blockCap {
			t.Fatalf("after %d records: tail chunks with room for %d slots hold blocks of %d (%d chunks)", i+3, slots, blocks, chunks)
		}
		peak = max(peak, held())
	}
	_, shrinks := ix.BuildCounters()
	t.Logf("τ = %.3f after %d shrinks: %d slots listed, room for %d (built with %d, peak %d)", ix.Tau(), shrinks, ix.postings.slots, held(), built, peak)
	if shrinks < 10 || ix.keys < built/2 || 3*held() > 2*peak {
		t.Fatalf("%d shrinks, %d keys, built with %d slots, peak %d: the fixture did not shrink hard from a peak", shrinks, ix.keys, built, peak)
	}
	sameDerived(t, reload(t, ix, "shrunk"), ix, "shrunk")
}

// chunkSlots is the slots a growth chunk of the posting tails holds.
const chunkSlots = 64 << 10 / 2

// TestAddRecordsGrownEqualsBuilt: an index grown record by record across many
// chunk boundaries of every store — with a record whose key run and whose
// coding are each longer than a chunk, empty records, and threshold shrinks
// from part-way on that summarise the long record again — is the
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
				if run := grown.summaryOf(200 + 10).k(); grown.Tau() != 1 || run <= 64<<10/4 {
					t.Fatalf("r=%d: the long record's run holds %d keys at τ = %v, want more than a chunk of keys", r, run, grown.Tau())
				}
				sameDerived(t, reload(t, grown, "before any shrink"), grown, "before any shrink")
			}
		}
		_, shrinks := grown.BuildCounters()
		if chunks := len(grown.sums.Chunks()); shrinks < 5 || chunks < 6 {
			t.Fatalf("r=%d: %d shrinks, %d summary chunks: the fixture does not cross enough of either", r, shrinks, chunks)
		}
		built := reload(t, grown, "grown")
		if chunks := len(built.sums.Chunks()); chunks != 1 {
			t.Fatalf("r=%d: the loaded summary table is %d chunks, want one slab", r, chunks)
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
