package gbkmv_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"gbkmv"
)

// segTestEngines is every registered backend, exercised across seeds.
var segTestEngines = []string{"gbkmv", "gkmv", "kmv", "minhash", "lshforest", "lshensemble", "exact"}

// segmentIndependentEngines are the backends whose per-record estimates do
// not depend on which other records share the index — exact trivially, kmv
// and minhash because the segment pinners fix the signature length against
// the whole collection before the split — so their segmented results must be
// bit-identical to a single index at ANY segment count.
var segmentIndependentEngines = []string{"exact", "kmv", "minhash"}

func segOpts(seed uint64) gbkmv.EngineOptions {
	return gbkmv.EngineOptions{BudgetFraction: 0.3, Seed: seed}
}

// assertSameResults compares every query surface of two engines over the
// same logical collection.
func assertSameResults(t *testing.T, label string, want, got gbkmv.Engine, queries []gbkmv.Record) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: Len %d != %d", label, got.Len(), want.Len())
	}
	for qi, q := range queries {
		wp, gp := want.PrepareQuery(q), got.PrepareQuery(q)
		for _, th := range []float64{0.2, 0.5, 0.8} {
			w, g := wp.Search(th), gp.Search(th)
			if !sameIDs(w, g) {
				t.Fatalf("%s: query %d Search(%.1f) = %v, want %v", label, qi, th, g, w)
			}
			wh, wt := wp.SearchScored(th, 0)
			gh, gt := gp.SearchScored(th, 0)
			if wt != gt || !reflect.DeepEqual(wh, gh) {
				t.Fatalf("%s: query %d SearchScored(%.1f) = %v/%d, want %v/%d", label, qi, th, gh, gt, wh, wt)
			}
			wh, wt = wp.SearchScored(th, 3)
			gh, gt = gp.SearchScored(th, 3)
			if wt != gt || !reflect.DeepEqual(wh, gh) {
				t.Fatalf("%s: query %d SearchScored(%.1f, limit 3) = %v/%d, want %v/%d", label, qi, th, gh, gt, wh, wt)
			}
		}
		for _, k := range []int{1, 5, 20} {
			w, g := wp.TopK(k), gp.TopK(k)
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("%s: query %d TopK(%d) = %v, want %v", label, qi, k, g, w)
			}
		}
		for i := 0; i < want.Len(); i += 7 {
			if w, g := wp.Estimate(i), gp.Estimate(i); w != g {
				t.Fatalf("%s: query %d Estimate(%d) = %v, want %v", label, qi, i, g, w)
			}
		}
	}
	for i := 0; i < want.Len(); i += 11 {
		if !reflect.DeepEqual(want.Record(i), got.Record(i)) {
			t.Fatalf("%s: Record(%d) differs", label, i)
		}
	}
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSegmentedOneEqualsBare pins the n=1 identity for every engine and
// seed: a single-segment collection must be bit-identical to the bare
// engine on every query surface — after the build, after dynamic inserts,
// and after a snapshot round-trip.
func TestSegmentedOneEqualsBare(t *testing.T) {
	records, queries := engineCorpus(t, 150)
	extra := records[:20]
	base := records[20:]
	for _, name := range segTestEngines {
		for _, seed := range []uint64{7, 42} {
			opt := segOpts(seed)
			bare, err := gbkmv.NewEngine(name, append([]gbkmv.Record(nil), base...), opt)
			if err != nil {
				t.Fatalf("NewEngine(%s): %v", name, err)
			}
			seg, err := gbkmv.NewSegmented(name, 1, append([]gbkmv.Record(nil), base...), opt)
			if err != nil {
				t.Fatalf("NewSegmented(%s, 1): %v", name, err)
			}
			label := name + "/seed" + string(rune('0'+seed%10)) + "/built"
			assertSameResults(t, label, bare, seg, queries)

			if ids := seg.AddBatch(extra); ids[0] != bare.Len() {
				t.Fatalf("%s: segmented ids start at %d, want %d", name, ids[0], bare.Len())
			}
			bare.AddBatch(extra)
			assertSameResults(t, name+"/inserted", bare, seg, queries)

			var buf bytes.Buffer
			if err := gbkmv.SaveEngine(&buf, seg); err != nil {
				t.Fatalf("SaveEngine(%s segmented): %v", name, err)
			}
			loaded, err := gbkmv.LoadEngine(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("LoadEngine(%s segmented): %v", name, err)
			}
			ls, ok := loaded.(*gbkmv.Segmented)
			if !ok {
				t.Fatalf("%s: loaded %T, want *Segmented", name, loaded)
			}
			if ls.SegmentCount() != 1 {
				t.Fatalf("%s: loaded %d segments, want 1", name, ls.SegmentCount())
			}
			assertSameResults(t, name+"/reloaded", bare, loaded, queries)
		}
	}
}

// TestSegmentedManyEqualsBare pins full bit-identity at n=4 for the
// segment-independent engines (see segmentIndependentEngines).
func TestSegmentedManyEqualsBare(t *testing.T) {
	records, queries := engineCorpus(t, 150)
	extra := records[:20]
	base := records[20:]
	for _, name := range segmentIndependentEngines {
		opt := segOpts(42)
		bare, err := gbkmv.NewEngine(name, append([]gbkmv.Record(nil), base...), opt)
		if err != nil {
			t.Fatalf("NewEngine(%s): %v", name, err)
		}
		seg, err := gbkmv.NewSegmented(name, 4, append([]gbkmv.Record(nil), base...), opt)
		if err != nil {
			t.Fatalf("NewSegmented(%s, 4): %v", name, err)
		}
		assertSameResults(t, name+"/n4/built", bare, seg, queries)
		seg.AddBatch(extra)
		bare.AddBatch(extra)
		assertSameResults(t, name+"/n4/inserted", bare, seg, queries)

		var buf bytes.Buffer
		if err := gbkmv.SaveEngine(&buf, seg); err != nil {
			t.Fatalf("SaveEngine: %v", err)
		}
		loaded, err := gbkmv.LoadEngine(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("LoadEngine: %v", err)
		}
		assertSameResults(t, name+"/n4/reloaded", bare, loaded, queries)
	}
}

// TestSegmentedMergeInvariants pins the merge semantics every engine must
// satisfy at n>1, including the data-dependent sketches whose estimates are
// legitimately those of n smaller indexes: results ascending and duplicate-
// free, scored hits consistent with Search, and TopK exactly the k best of
// the segmented engine's own Estimate surface under the global tie rule
// (score descending, id ascending on ties).
func TestSegmentedMergeInvariants(t *testing.T) {
	records, queries := engineCorpus(t, 150)
	for _, name := range segTestEngines {
		seg, err := gbkmv.NewSegmented(name, 4, append([]gbkmv.Record(nil), records...), segOpts(42))
		if err != nil {
			t.Fatalf("NewSegmented(%s): %v", name, err)
		}
		recs := seg.SegmentRecords()
		if len(recs) != 4 {
			t.Fatalf("%s: SegmentRecords len %d", name, len(recs))
		}
		total := 0
		for _, n := range recs {
			total += n
		}
		if total != len(records) {
			t.Fatalf("%s: segments hold %d records, want %d", name, total, len(records))
		}
		for qi, q := range queries {
			pq := seg.PrepareQuery(q)
			ids := pq.Search(0.5)
			for i := 1; i < len(ids); i++ {
				if ids[i] <= ids[i-1] {
					t.Fatalf("%s: query %d Search not strictly ascending: %v", name, qi, ids)
				}
			}
			hits, totalHits := pq.SearchScored(0.5, 0)
			if totalHits != len(ids) || len(hits) != len(ids) {
				t.Fatalf("%s: query %d SearchScored %d/%d hits, Search %d", name, qi, len(hits), totalHits, len(ids))
			}
			for i, h := range hits {
				if h.ID != ids[i] {
					t.Fatalf("%s: query %d scored hit %d id %d, Search id %d", name, qi, i, h.ID, ids[i])
				}
			}
			limited, lt := pq.SearchScored(0.5, 2)
			if lt != totalHits {
				t.Fatalf("%s: query %d limited total %d, want %d", name, qi, lt, totalHits)
			}
			if want := min(2, len(hits)); len(limited) != want || !reflect.DeepEqual(limited, hits[:want]) {
				t.Fatalf("%s: query %d limited hits %v, want prefix of %v", name, qi, limited, hits)
			}
			// TopK must come back in the global tie order (score descending,
			// id ascending on ties) with every score agreeing with the
			// engine's own Estimate surface.
			k := 10
			got := pq.TopK(k)
			if len(got) > k {
				t.Fatalf("%s: query %d TopK(%d) returned %d hits", name, qi, k, len(got))
			}
			for i, h := range got {
				if i > 0 {
					prev := got[i-1]
					if h.Score > prev.Score || (h.Score == prev.Score && h.ID <= prev.ID) {
						t.Fatalf("%s: query %d TopK out of tie order at %d: %v", name, qi, i, got)
					}
				}
				if h.Score <= 0 {
					t.Fatalf("%s: query %d TopK returned zero-estimate hit %v", name, qi, h)
				}
				if est := pq.Estimate(h.ID); est != h.Score {
					t.Fatalf("%s: query %d TopK score %v disagrees with Estimate %v", name, qi, h.Score, est)
				}
			}
			// For the full-scan engines the fan-out merge must reproduce the
			// brute-force top-k of the engine's own Estimate surface exactly.
			if name == "exact" || name == "kmv" || name == "minhash" {
				type cand struct {
					id    int
					score float64
				}
				var all []cand
				for i := 0; i < seg.Len(); i++ {
					if s := pq.Estimate(i); s > 0 {
						all = append(all, cand{i, s})
					}
				}
				sort.Slice(all, func(a, b int) bool {
					if all[a].score != all[b].score {
						return all[a].score > all[b].score
					}
					return all[a].id < all[b].id
				})
				if len(all) > k {
					all = all[:k]
				}
				if len(got) != len(all) {
					t.Fatalf("%s: query %d TopK returned %d, want %d", name, qi, len(got), len(all))
				}
				for i := range got {
					if got[i].ID != all[i].id || got[i].Score != all[i].score {
						t.Fatalf("%s: query %d TopK[%d] = %v, want {%d %v}", name, qi, i, got[i], all[i].id, all[i].score)
					}
				}
			}
		}
	}
}

// TestSegmentedDeferredBuild pins the empty-start path: a segmented
// collection created with no records builds its segments lazily on first
// insert, snapshots with empty segments intact, and reloads.
func TestSegmentedDeferredBuild(t *testing.T) {
	records, queries := engineCorpus(t, 60)
	seg, err := gbkmv.NewSegmented("gbkmv", 8, nil, segOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if seg.Len() != 0 || seg.SegmentCount() != 8 {
		t.Fatalf("empty segmented: Len %d, segments %d", seg.Len(), seg.SegmentCount())
	}
	if ids := seg.PrepareQuery(queries[0]).Search(0.1); len(ids) != 0 {
		t.Fatalf("empty segmented Search returned %v", ids)
	}
	// Insert a handful: with 8 segments and 5 records some segments stay
	// empty (deferred), and save/load must preserve that.
	seg.AddBatch(records[:5])
	if seg.Len() != 5 {
		t.Fatalf("Len %d after insert, want 5", seg.Len())
	}
	var buf bytes.Buffer
	if err := gbkmv.SaveEngine(&buf, seg); err != nil {
		t.Fatal(err)
	}
	loaded, err := gbkmv.LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "deferred/reloaded", seg, loaded, queries)
	// And the reloaded engine keeps taking inserts.
	loaded.AddBatch(records[5:10])
	seg.AddBatch(records[5:10])
	assertSameResults(t, "deferred/inserted", seg, loaded, queries)
}

// TestSegmentedEngineStats pins the aggregate stats surface.
func TestSegmentedEngineStats(t *testing.T) {
	records, _ := engineCorpus(t, 120)
	seg, err := gbkmv.NewSegmented("gbkmv", 4, records, segOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	st := seg.EngineStats()
	if st.Engine != "gbkmv" {
		t.Fatalf("Engine = %q", st.Engine)
	}
	if st.NumRecords != len(records) {
		t.Fatalf("NumRecords = %d, want %d", st.NumRecords, len(records))
	}
	if st.SizeBytes <= 0 || st.UsedUnits <= 0 || st.Tau <= 0 {
		t.Fatalf("implausible aggregate stats: %+v", st)
	}
	// Records route to exactly one segment, so their bytes sum to the bare
	// engine's up to the offset table's one extra slot a segment; the index
	// part sums per-segment lists and columns, each over its own τ and E_H.
	bare, err := gbkmv.NewEngine("gbkmv", records, segOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.RecordBytes, bare.EngineStats().RecordBytes+4*(seg.SegmentCount()-1); got != want {
		t.Fatalf("RecordBytes = %d over %d segments, bare engine %d", got, seg.SegmentCount(), want)
	}
	if st.IndexBytes <= 0 {
		t.Fatalf("IndexBytes = %d", st.IndexBytes)
	}
	if h, _ := seg.BuildCounters(); h == 0 {
		t.Fatal("BuildCounters reported no hashing work")
	}
}

// TestAppendForms: on every engine, bare and segmented, AppendSearchScored
// and AppendTopK leave what dst held alone and append exactly what
// SearchScored and TopK return. With room in dst they allocate nothing on
// gbkmv, and on a Segmented over it only what starting the fan's goroutines
// costs: one object each.
func TestAppendForms(t *testing.T) {
	records, queries := engineCorpus(t, 250)
	marker := gbkmv.Scored{ID: -7, Score: 7}
	for _, name := range gbkmv.Engines() {
		for _, segments := range []int{0, 1, 3} {
			e := buildEngine(t, name, records)
			if segments > 0 {
				var err error
				if e, err = gbkmv.NewSegmented(name, segments, records, segOpts(42)); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range queries[:6] {
				pq := e.PrepareQuery(q)
				for _, limit := range []int{0, 3} {
					want, wantTotal := pq.SearchScored(0.3, limit)
					got, total := pq.AppendSearchScored([]gbkmv.Scored{marker}, 0.3, limit)
					if total != wantTotal || got[0] != marker || !reflect.DeepEqual(got[1:], want) {
						t.Fatalf("%s/%d segments, query %d: AppendSearchScored(limit %d) = %v/%d after the marker, SearchScored %v/%d",
							name, segments, qi, limit, got[1:], total, want, wantTotal)
					}
				}
				for _, k := range []int{0, 1, 5} {
					want := pq.TopK(k)
					got := pq.AppendTopK([]gbkmv.Scored{marker}, k)
					if got[0] != marker || len(got)-1 != len(want) || (len(want) > 0 && !reflect.DeepEqual(got[1:], want)) {
						t.Fatalf("%s/%d segments, query %d: AppendTopK(%d) = %v after the marker, TopK %v", name, segments, qi, k, got[1:], want)
					}
				}
			}
		}
	}
	if raceEnabled {
		return // allocation counts are meaningless under the race detector
	}
	for _, segments := range []int{0, 1, 2} {
		e := buildEngine(t, "gbkmv", records)
		goroutines := 0
		if segments > 0 {
			var err error
			if e, err = gbkmv.NewSegmented("gbkmv", segments, records, segOpts(42)); err != nil {
				t.Fatal(err)
			}
			if goroutines = min(runtime.GOMAXPROCS(0), segments); goroutines == 1 {
				goroutines = 0 // one worker runs inline
			}
		}
		pq := e.PrepareQuery(queries[0])
		var dst []gbkmv.Scored
		search := func() { dst, _ = pq.AppendSearchScored(dst[:0], 0.3, 0) }
		topk := func() { dst = pq.AppendTopK(dst[:0], 10) }
		for i := 0; i < 4; i++ { // warm the pools and dst
			search()
			topk()
		}
		if len(dst) == 0 {
			t.Fatal("the fixture query has no results")
		}
		// Not testing.AllocsPerRun, which measures at GOMAXPROCS 1, where the
		// fan runs inline and starts nothing. The least of a few rounds: one a
		// collection cycle falls into also pays for the pooled scratch it drops.
		mallocs := func(f func()) float64 {
			least := math.Inf(1)
			for round := 0; round < 4; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 100; i++ {
					f()
				}
				runtime.ReadMemStats(&after)
				least = min(least, float64(after.Mallocs-before.Mallocs)/100)
			}
			return least
		}
		if got := mallocs(search); got > float64(goroutines)+0.05 {
			t.Errorf("%d segments: AppendSearchScored allocates %.2f per call with a warm buffer, want at most %d", segments, got, goroutines)
		}
		if got := mallocs(topk); got > float64(goroutines)+0.05 {
			t.Errorf("%d segments: AppendTopK allocates %.2f per call with a warm buffer, want at most %d", segments, got, goroutines)
		}
	}
}
