package core

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"sort"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
)

// Allocation-regression tests: the arena + pooled-scratch query path must
// stay steady-state allocation-free apart from its result slice. These
// guard the flat-layout refactor against quietly regressing back to
// per-query O(m) scratch allocation.

func skipAllocsUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (instrumented allocs, lossy sync.Pool)")
	}
}

func allocFixture(t *testing.T) (*Index, []dataset.Record) {
	t.Helper()
	skipAllocsUnderRace(t)
	d := testDataset(t, 400)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	return ix, d.SampleQueries(16, 5)
}

func TestSearchSigAllocs(t *testing.T) {
	ix, queries := allocFixture(t)
	sig := ix.Sketch(queries[0])
	for i := 0; i < 4; i++ { // warm the scratch pool and its buffers
		ix.SearchSig(sig, 0.5)
	}
	if got := testing.AllocsPerRun(100, func() { ix.SearchSig(sig, 0.5) }); got > 2 {
		t.Errorf("SearchSig allocates %.1f per call, want ≤ 2", got)
	}
}

func TestSearchTopKSigAllocs(t *testing.T) {
	ix, queries := allocFixture(t)
	sig := ix.Sketch(queries[0])
	for i := 0; i < 4; i++ {
		ix.SearchTopKSig(sig, 10)
	}
	if got := testing.AllocsPerRun(100, func() { ix.SearchTopKSig(sig, 10) }); got > 2 {
		t.Errorf("SearchTopKSig allocates %.1f per call, want ≤ 2", got)
	}
}

func TestSketchAndSearchAllocs(t *testing.T) {
	// The raw-record entry points sketch into pooled scratch as well, so a
	// server answering Search(q) pays only for the result slice.
	ix, queries := allocFixture(t)
	for i := 0; i < 4; i++ {
		ix.Search(queries[0], 0.5)
		ix.SearchTopK(queries[0], 10)
	}
	if got := testing.AllocsPerRun(100, func() { ix.Search(queries[0], 0.5) }); got > 2 {
		t.Errorf("Search allocates %.1f per call, want ≤ 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { ix.SearchTopK(queries[0], 10) }); got > 2 {
		t.Errorf("SearchTopK allocates %.1f per call, want ≤ 2", got)
	}
}

func TestSearchAllocsUnderInserts(t *testing.T) {
	// The mixed read/write shape: 1 AddRecord : 4 SearchSigScored on a
	// collection large enough that anything sized to it shows. A search must
	// allocate its hits and nothing else — an insert may not force the
	// pooled scratch to be re-made, and candidates may not size the result.
	skipAllocsUnderRace(t)
	d := buildTestDataset(t, 81, 20000)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Long queries: thousands of candidates each, a few dozen hits.
	var queries []dataset.Record
	for _, rec := range d.Records {
		if len(rec) >= 150 && len(queries) < 4 {
			queries = append(queries, rec)
		}
	}
	sigs := make([]*QuerySig, len(queries))
	search := func() (hits, candidates int) {
		for _, sig := range sigs {
			res, _ := ix.SearchSigScored(sig, 0.5, 0)
			if cap(res) != len(res) {
				t.Fatalf("result has cap %d for %d hits", cap(res), len(res))
			}
			hits += len(res)
			candidates += sig.Stats.Candidates
		}
		return
	}
	var searches, hits, candidates int
	var allocated uint64
	var before, after runtime.MemStats
	for i, rec := range buildTestDataset(t, 83, 200).Records {
		ix.AddRecord(rec)
		for j, q := range queries {
			sigs[j] = ix.Sketch(q) // τ may have moved
		}
		if i == 0 {
			search() // first use makes the scratch
		}
		runtime.ReadMemStats(&before)
		h, c := search()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		searches += len(sigs)
		hits += h
		candidates += c
	}
	if _, shrinks := ix.BuildCounters(); shrinks == 0 {
		t.Fatal("no threshold shrink; the fixture is not at a full budget")
	}
	if candidates < 20*hits {
		t.Fatalf("%d candidates for %d hits; the fixture cannot tell them apart", candidates, hits)
	}
	if per := allocated / uint64(searches); per > 4<<10 {
		t.Errorf("%d bytes allocated per search (%d hits, %d candidates over %d searches), want ≤ 4 kB",
			per, hits, candidates, searches)
	}
}

// refSketches is the pre-refactor signature store: one heap-allocated G-KMV
// sketch per record, built from the record's non-buffered elements under the
// index's live threshold. The differential tests below pin the arena-backed
// estimators to this path bit for bit.
func refSketches(ix *Index) []*gkmv.Sketch {
	out := make([]*gkmv.Sketch, len(ix.records))
	for i, rec := range ix.records {
		rest := rec[:0:0]
		for _, e := range rec {
			if _, buffered := ix.bitOf[e]; !buffered {
				rest = append(rest, e)
			}
		}
		out[i] = gkmv.Build(rest, ix.tau, ix.opt.Seed)
	}
	return out
}

// refEstimate is Equation 27 over the slice-of-sketches reference store.
func refEstimate(ix *Index, refs []*gkmv.Sketch, sig *QuerySig, refQ *gkmv.Sketch, i int) float64 {
	exact := 0
	if sig.buffer != nil && ix.bufArena.stride > 0 {
		exact = sig.buffer.AndCountWords(ix.bufArena.record(i))
	}
	return float64(exact) + gkmv.Intersect(refQ, refs[i]).DInter
}

// refTopK is the pre-refactor top-k: score every record, drop zeros, sort by
// (score desc, id asc), truncate.
func refTopK(ix *Index, sig *QuerySig, k int) []Scored {
	scored := []Scored{}
	for i := range ix.records {
		if s := ix.EstimateContainment(sig, i); s > 0 {
			scored = append(scored, Scored{ID: i, Score: s})
		}
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].Score != scored[b].Score {
			return scored[a].Score > scored[b].Score
		}
		return scored[a].ID < scored[b].ID
	})
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored
}

// checkDifferential asserts Search == SearchLinear, TopK == reference top-k,
// and arena estimates == slice-of-sketches estimates, bit-identically.
func checkDifferential(t *testing.T, ix *Index, queries []dataset.Record, label string) {
	t.Helper()
	refs := refSketches(ix)
	for qi, q := range queries {
		sig := ix.Sketch(q)
		refQ := gkmv.Build(sig.rest, ix.tau, ix.opt.Seed)
		for i := range ix.records {
			got := ix.EstimateIntersection(sig, i)
			want := refEstimate(ix, refs, sig, refQ, i)
			if got != want {
				t.Fatalf("%s: q%d record %d: arena estimate %v != reference %v", label, qi, i, got, want)
			}
		}
		for _, tstar := range []float64{0.2, 0.5, 0.8} {
			got := ix.SearchSig(sig, tstar)
			want := ix.SearchLinear(q, tstar)
			if len(got) != len(want) {
				t.Fatalf("%s: q%d t*=%v: Search %d results, SearchLinear %d", label, qi, tstar, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: q%d t*=%v: result %d is %d, want %d", label, qi, tstar, i, got[i], want[i])
				}
			}
		}
		for _, k := range []int{1, 5, 50} {
			got := ix.SearchTopKSig(sig, k)
			want := refTopK(ix, sig, k)
			if len(got) != len(want) {
				t.Fatalf("%s: q%d k=%d: %d results, want %d", label, qi, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: q%d k=%d: result %d = %+v, want %+v", label, qi, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestArenaDifferentialAgainstReference(t *testing.T) {
	for _, seed := range []int64{3, 77, 991} {
		d, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 250, Universe: 5000,
			AlphaFreq: 1.1, AlphaSize: 2.2,
			MinSize: 20, MaxSize: 300,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(d, defaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		queries := d.SampleQueries(8, seed+1)
		checkDifferential(t, ix, queries, "fresh")

		// Force an over-budget threshold shrink via a batch insert, then
		// re-verify: the rebuilt arena must still mirror the reference.
		tauBefore := ix.Tau()
		extra, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 120, Universe: 5000,
			AlphaFreq: 1.1, AlphaSize: 2.2,
			MinSize: 20, MaxSize: 300,
		}, seed+2)
		if err != nil {
			t.Fatal(err)
		}
		ix.AddRecords(extra.Records)
		if ix.Tau() >= tauBefore {
			t.Fatalf("seed %d: batch insert did not shrink τ (%v → %v); fixture too small", seed, tauBefore, ix.Tau())
		}
		checkDifferential(t, ix, queries, "post-shrink")

		// And once more through a Save/Load round trip of the arena wire.
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkDifferential(t, loaded, queries, "reloaded")
	}
}

func TestLoadLegacyV1Snapshot(t *testing.T) {
	// A version-1 stream carries no arena; Load must rebuild the sketches
	// from the records and answer identically to the index that wrote it.
	d := testDataset(t, 150)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(indexWire{
		Version:     1,
		Opt:         ix.opt,
		Records:     ix.records,
		BufferElems: ix.bufferElems,
		Tau:         ix.tau,
		BufferBits:  ix.bufferBits,
		Budget:      ix.budget,
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.arena.units() != ix.arena.units() {
		t.Fatalf("legacy load stored %d hash values, want %d", loaded.arena.units(), ix.arena.units())
	}
	for _, q := range d.SampleQueries(10, 9) {
		a, b := ix.Search(q, 0.5), loaded.Search(q, 0.5)
		if len(a) != len(b) {
			t.Fatalf("legacy load: %d vs %d results", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("legacy load: result %d differs", i)
			}
		}
	}
}

func TestLoadV2Snapshot(t *testing.T) {
	// A version-2 stream carries the sketch arena but no buffer arena; Load
	// must rebuild the buffers from the records and answer identically to
	// the index that wrote it.
	d := testDataset(t, 150)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(indexWire{
		Version:       2,
		Opt:           ix.opt,
		Records:       ix.records,
		BufferElems:   ix.bufferElems,
		Tau:           ix.tau,
		BufferBits:    ix.bufferBits,
		Budget:        ix.budget,
		ArenaHashes:   ix.arena.hashes,
		ArenaOffsets:  ix.arena.offsets,
		ArenaComplete: ix.arena.complete,
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.bufArena.words) != len(ix.bufArena.words) {
		t.Fatalf("v2 load rebuilt %d buffer words, want %d", len(loaded.bufArena.words), len(ix.bufArena.words))
	}
	for i, w := range ix.bufArena.words {
		if loaded.bufArena.words[i] != w {
			t.Fatalf("v2 load: buffer word %d differs", i)
		}
	}
	for _, q := range d.SampleQueries(10, 9) {
		a, b := ix.Search(q, 0.5), loaded.Search(q, 0.5)
		if len(a) != len(b) {
			t.Fatalf("v2 load: %d vs %d results", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("v2 load: result %d differs", i)
			}
		}
	}
}

func TestLoadRejectsCorruptBufferArena(t *testing.T) {
	d := testDataset(t, 40)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.2, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(*indexWire)) error {
		w := indexWire{
			Version: wireVersion, Opt: ix.opt, Records: ix.records,
			BufferElems: ix.bufferElems, Tau: ix.tau,
			BufferBits: ix.bufferBits, Budget: ix.budget,
			ArenaHashes:   append([]float64(nil), ix.arena.hashes...),
			ArenaOffsets:  append([]uint32(nil), ix.arena.offsets...),
			ArenaComplete: append([]bool(nil), ix.arena.complete...),
			BufWords:      append([]uint64(nil), ix.bufArena.words...),
			BufStride:     ix.bufArena.stride,
		}
		mutate(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		return err
	}
	if err := corrupt(func(w *indexWire) { w.BufWords = w.BufWords[:len(w.BufWords)-1] }); err == nil {
		t.Error("truncated buffer arena accepted")
	}
	if err := corrupt(func(w *indexWire) { w.BufStride = 7 }); err == nil {
		t.Error("mismatched buffer stride accepted")
	}
}

func TestLoadRejectsCorruptArena(t *testing.T) {
	d := testDataset(t, 50)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(*indexWire)) error {
		w := indexWire{
			Version: wireVersion, Opt: ix.opt, Records: ix.records,
			BufferElems: ix.bufferElems, Tau: ix.tau,
			BufferBits: ix.bufferBits, Budget: ix.budget,
			ArenaHashes:   append([]float64(nil), ix.arena.hashes...),
			ArenaOffsets:  append([]uint32(nil), ix.arena.offsets...),
			ArenaComplete: append([]bool(nil), ix.arena.complete...),
		}
		mutate(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		return err
	}
	if err := corrupt(func(w *indexWire) { w.ArenaOffsets = w.ArenaOffsets[:len(w.ArenaOffsets)-1] }); err == nil {
		t.Error("truncated offset table accepted")
	}
	if err := corrupt(func(w *indexWire) { w.ArenaOffsets[len(w.ArenaOffsets)-1]++ }); err == nil {
		t.Error("offset table overrunning the hash store accepted")
	}
	if err := corrupt(func(w *indexWire) {
		if len(w.ArenaHashes) >= 2 {
			w.ArenaHashes[0], w.ArenaHashes[1] = 1, 0 // descending run
			w.ArenaOffsets = []uint32{0, 2}
			w.ArenaOffsets = append(w.ArenaOffsets, make([]uint32, len(w.Records)-1)...)
			for i := 2; i < len(w.ArenaOffsets); i++ {
				w.ArenaOffsets[i] = 2
			}
			w.ArenaHashes = w.ArenaHashes[:2]
		}
	}); err == nil {
		t.Error("descending hash run accepted")
	}
}
