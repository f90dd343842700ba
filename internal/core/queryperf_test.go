package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
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

func TestAppendSearchAllocs(t *testing.T) {
	// The append forms copy out of the pooled scratch into the caller's
	// buffer: with room there, a search and a top-k allocate nothing at all.
	ix, queries := allocFixture(t)
	sig := ix.Sketch(queries[0])
	var dst []Scored
	for i := 0; i < 4; i++ { // warm the scratch pool, its buffers and dst
		dst, _ = ix.AppendSearchSigScored(dst[:0], sig, 0.5, 0)
		dst = ix.AppendTopKSig(dst[:0], sig, 10)
	}
	if len(dst) == 0 {
		t.Fatal("the fixture query has no results")
	}
	if got := testing.AllocsPerRun(100, func() { dst, _ = ix.AppendSearchSigScored(dst[:0], sig, 0.5, 0) }); got != 0 {
		t.Errorf("AppendSearchSigScored allocates %.1f per call with a warm buffer, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { dst = ix.AppendTopKSig(dst[:0], sig, 10) }); got != 0 {
		t.Errorf("AppendTopKSig allocates %.1f per call with a warm buffer, want 0", got)
	}
}

// TestTopKPlanesSizedOnce: a scratch makes its counter planes and its list of
// a query's columns once, for the most a query can take (the bits of |E_H|,
// |E_H|), so top-k queries of rising n_q on one scratch allocate nothing after
// the first — where sizing them by the query made them again at every new
// plane count and every doubling of n_q.
func TestTopKPlanesSizedOnce(t *testing.T) {
	skipAllocsUnderRace(t)
	d := testDataset(t, 400)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	eh := ix.BufferElements()
	var sigs []*QuerySig
	for nq := 1; nq <= len(eh); nq++ {
		sigs = append(sigs, ix.Sketch(dataset.NewRecord(slices.Clone(eh[:nq]))))
	}
	if b := bits.Len(uint(len(eh))); b < 6 {
		t.Fatalf("|E_H| = %d: the queries span %d plane counts", len(eh), b)
	}
	sc := ix.getScratch()
	ix.topkSigWith(sigs[0], 10, sc)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sig := range sigs[1:] {
		ix.topkSigWith(sig, 10, sc)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d top-k queries of n_q = 2 … %d on one scratch allocated %d times, want 0", len(sigs)-1, len(eh), n)
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

func TestAddRecordsAllocs(t *testing.T) {
	// An insert works in scratch the index owns: once the lists and arenas
	// it appends to have grown past the fixture (130 warm-up inserts of the
	// same record double every list it touches past the 100 that follow),
	// a record allocates nothing — not the three per-record slices (its
	// elements, their keys, its run) the path used to make.
	skipAllocsUnderRace(t)
	d := testDataset(t, 400)
	ix, err := BuildIndex(d, Options{BudgetUnits: 8 * d.TotalElements(), BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	batch := []dataset.Record{d.Records[7]}
	for i := 0; i < 130; i++ {
		ix.AddRecords(batch)
	}
	if got := testing.AllocsPerRun(100, func() { ix.AddRecords(batch) }); got >= 1 {
		t.Errorf("AddRecords allocates %.0f per record, want 0", got)
	}
	if _, shrinks := ix.BuildCounters(); shrinks != 0 || ix.Tau() != 1 {
		t.Fatalf("the fixture left its headroom (τ = %v, %d shrinks)", ix.Tau(), shrinks)
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
		ix.AddRecords([]dataset.Record{rec})
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

// refTopK is the pre-refactor top-k: score every record, drop zeros, sort by
// (score desc, id asc), truncate.
func refTopK(ix *Index, sig *QuerySig, k int) []Scored {
	scored := []Scored{}
	for i := 0; i < ix.recs.Len(); i++ {
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

// longQueries returns up to n queries of 150 elements or more, the kind whose
// searches at t* ≥ 0.5 have a minCount T ≥ 2: records of d that long, each
// with a fifth of its elements swapped for others of the universe, so the
// record still holds about four fifths of its query.
func longQueries(d *dataset.Dataset, n int, seed int64) []dataset.Record {
	rng := rand.New(rand.NewSource(seed))
	var out []dataset.Record
	for _, rec := range d.Records {
		if len(out) == n {
			break
		}
		if len(rec) < 150 {
			continue
		}
		q := slices.Clone(rec)
		for i := range q {
			if rng.Intn(5) == 0 {
				q[i] = hash.Element(rng.Intn(d.Universe))
			}
		}
		if q = dataset.NewRecord(q); len(q) >= 150 {
			out = append(out, q)
		}
	}
	return out
}

// checkDifferential asserts the index against the 53-bit reference — same K
// and K∩ for every pair, estimates within 1e-6 relative, Search and
// SearchTopK returning the reference's result sets — and against itself:
// Search == SearchLinear, TopK == score-everything-and-sort, bit-identically.
// It returns how many of its searches had a minCount T ≥ 3 and touched a
// candidate.
func checkDifferential(t *testing.T, ix *Index, queries []dataset.Record, label string) (counted int) {
	t.Helper()
	ref := newRefIndex(ix)
	for qi, q := range queries {
		sig := ix.Sketch(q)
		refQ := refSketchOf(ref.rest(q), ix.Tau(), ix.opt.Seed)
		sc := &searchScratch{}
		for i := 0; i < ix.recs.Len(); i++ {
			gotKInter := ix.sharedCount(sig, i, sc)
			gotK := sig.sum.K + ix.summaryOf(i).k() - gotKInter
			gotDInter := ix.countedEstimate(sig, i, gotKInter)
			k, kInter, dInter := refIntersect(refQ, ref.sketches[i])
			if gotK != k || gotKInter != kInter {
				t.Fatalf("%s: q%d record %d: K=%d K∩=%d, reference %d %d", label, qi, i, gotK, gotKInter, k, kInter)
			}
			if math.Abs(gotDInter-dInter) > 1e-6*dInter {
				t.Fatalf("%s: q%d record %d: D̂∩ = %v, reference %v", label, qi, i, gotDInter, dInter)
			}
			if est, want := ix.EstimateIntersection(sig, i), ref.estimate(sig, refQ, i); math.Abs(est-want) > 1e-6*want {
				t.Fatalf("%s: q%d record %d: estimate %v, reference %v", label, qi, i, est, want)
			}
		}
		for _, tstar := range []float64{0.2, 0.5, 0.8} {
			got := ix.SearchSig(sig, tstar)
			if want := ix.SearchLinear(q, tstar); !slices.Equal(got, want) {
				t.Fatalf("%s: q%d t*=%v: Search %v, SearchLinear %v", label, qi, tstar, got, want)
			}
			if want := ref.search(sig, refQ, tstar); !slices.Equal(got, want) {
				t.Fatalf("%s: q%d t*=%v: Search %v, reference %v", label, qi, tstar, got, want)
			}
			if sig.minCount(tstar*float64(sig.Size)) >= 3 && sig.Stats.Candidates > 0 {
				counted++
			}
		}
		for _, k := range []int{1, 5, 50} {
			got := ix.SearchTopKSig(sig, k)
			if want := refTopK(ix, sig, k); !slices.Equal(got, want) {
				t.Fatalf("%s: q%d k=%d: top-k %+v, want %+v", label, qi, k, got, want)
			}
			ids := []int{}
			for _, s := range got {
				ids = append(ids, s.ID)
			}
			if want := ref.topK(sig, refQ, k); !slices.Equal(ids, want) {
				t.Fatalf("%s: q%d k=%d: top-k ids %v, reference %v", label, qi, k, ids, want)
			}
		}
	}
	return counted
}

func TestArenaDifferentialAgainstReference(t *testing.T) {
	synth := func(m int, seed int64) *dataset.Dataset {
		d, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: m, Universe: 5000,
			AlphaFreq: 1.1, AlphaSize: 2.2,
			MinSize: 20, MaxSize: 300,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	type fixture struct {
		name     string
		d, extra *dataset.Dataset
		seed     int64
	}
	fixtures := []fixture{
		// The corpora the rest of this package's tests run on.
		{"core_test corpus", testDataset(t, 150), testDataset(t, 230), 5},
		{"build_test corpus", buildTestDataset(t, 55, 200), buildTestDataset(t, 56, 140), 6},
	}
	for _, seed := range []int64{3, 77, 991} {
		fixtures = append(fixtures, fixture{"synthetic", synth(250, seed), synth(120, seed+2), seed + 1})
	}
	for _, f := range fixtures {
		label := func(stage string) string { return fmt.Sprintf("%s (seed %d), %s", f.name, f.seed, stage) }
		ix, err := BuildIndex(f.d, defaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		// Sampled records, and long queries whose searches at t* = 0.5 and 0.8
		// take the counted path (minCount T ≥ 2).
		long := longQueries(f.d, 4, f.seed)
		queries := append(f.d.SampleQueries(8, f.seed), long...)
		counted := checkDifferential(t, ix, queries, label("fresh"))
		if len(long) == 0 || counted < len(long) {
			t.Fatalf("%s: %d searches of %d long queries touch candidates at T ≥ 3; the fixture bypasses the count", label("fresh"), counted, len(long))
		}

		// Force an over-budget threshold shrink via a batch insert, then
		// re-verify: the rebuilt arena must still mirror the reference.
		tauBefore := ix.Tau()
		ix.AddRecords(f.extra.Records)
		if ix.Tau() >= tauBefore {
			t.Fatalf("%s: batch insert did not shrink τ (%v → %v); fixture too small", label("insert"), tauBefore, ix.Tau())
		}
		checkDifferential(t, ix, queries, label("post-shrink"))

		// And once more through a Save/Load round trip of the arena wire.
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkDifferential(t, loaded, queries, label("reloaded"))
	}
}

// TestLoadOldFormat: a stream that is not an index of the current format —
// a gob-encoded version-3 index as the previous build wrote it, or plain
// garbage — is the named format error, not a decode failure.
func TestLoadOldFormat(t *testing.T) {
	d := testDataset(t, 20)
	var gobV3 bytes.Buffer
	if err := gob.NewEncoder(&gobV3).Encode(struct {
		Version int
		Records []dataset.Record
		Tau     float64
	}{3, d.Records, 0.5}); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"gob-v3":  gobV3.Bytes(),
		"garbage": []byte("junk"),
		"empty":   nil,
		"future":  append([]byte(indexMagic), snapfmt.Version+1, 0, 0),
	} {
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, snapfmt.ErrFormat) {
			t.Errorf("%s: Load = %v, want snapfmt.ErrFormat", name, err)
		}
	}
}

// zipfQueries is the query benchmarks' workload, serve-read's shape on the
// DESIGN.md corpus at the default budget: a pool of 1 024 subset queries (8 to
// 32 elements of an indexed record) and a schedule drawing them with Zipf
// popularity (s = 1.05), so a few head queries — the ones holding the
// collection's most popular elements among them — come up again and again.
func zipfQueries(tb testing.TB) (*Index, []*QuerySig, []int) {
	tb.Helper()
	d := designCorpus(tb)
	ix, err := BuildIndex(d, Options{BufferBits: AutoBuffer})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	sigs := make([]*QuerySig, 1024)
	for i := range sigs {
		rec := slices.Clone(d.Records[rng.Intn(len(d.Records))])
		rng.Shuffle(len(rec), func(a, b int) { rec[a], rec[b] = rec[b], rec[a] })
		sigs[i] = ix.Sketch(dataset.NewRecord(rec[:min(len(rec), 8+rng.Intn(25))]))
	}
	zipf := rand.NewZipf(rng, 1.05, 1, uint64(len(sigs)-1))
	order := make([]int, 1<<16)
	for i := range order {
		order[i] = int(zipf.Uint64())
	}
	return ix, sigs, order
}

// benchZipf runs query over the Zipf schedule, one query an iteration, and
// reports the mean beside the median: on a skewed schedule the median is a
// tail query's and the mean is where the CPU goes. With plane non-nil it
// reports the two again for each kind of query — plane-* for those plane
// says are plane queries, tail-* for the others — and with tailOnly it runs
// the schedule without the plane queries.
func benchZipf(b *testing.B, query func(ix *Index, sig *QuerySig), plane func(sig *QuerySig) bool, tailOnly bool) {
	ix, sigs, order := zipfQueries(b)
	if tailOnly {
		order = slices.DeleteFunc(order, func(q int) bool { return plane(sigs[q]) })
	}
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		sig := sigs[order[i%len(order)]]
		t0 := time.Now()
		query(ix, sig)
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	report := func(prefix string, lat []time.Duration) {
		if len(lat) == 0 {
			return
		}
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		slices.Sort(lat)
		b.ReportMetric(float64(sum.Microseconds())/float64(len(lat)), prefix+"mean-µs")
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, prefix+"p50-µs")
	}
	if plane != nil {
		var planes, tails []time.Duration
		for i, d := range lat {
			if plane(sigs[order[i%len(order)]]) {
				planes = append(planes, d)
			} else {
				tails = append(tails, d)
			}
		}
		report("plane-", planes)
		report("tail-", tails)
	}
	report("", lat)
}

// planeQuery reports whether a search at t* reads sig's buffer-only hits
// off the counter planes: whether ⌈θ⌉ ≤ n_q, so that a record can qualify
// on its buffer alone.
func planeQuery(sig *QuerySig, tstar float64) bool {
	return sig.buffer != nil && math.Ceil(tstar*float64(sig.Size)) <= float64(sig.buffer.Count())
}

// BenchmarkSearchZipf is serve-read's search: t* = 0.7, a page of 100, over
// the Zipf schedule (mixed) and over it without its plane queries
// (tail-only), each query kind's mean and median reported apart: whether a
// tail query's latency depends on the plane queries run between them.
func BenchmarkSearchZipf(b *testing.B) {
	const tstar = 0.7
	var dst []Scored
	search := func(ix *Index, sig *QuerySig) { dst, _ = ix.AppendSearchSigScored(dst[:0], sig, tstar, 100) }
	plane := func(sig *QuerySig) bool { return planeQuery(sig, tstar) }
	b.Run("mixed", func(b *testing.B) { benchZipf(b, search, plane, false) })
	b.Run("tail-only", func(b *testing.B) { benchZipf(b, search, plane, true) })
}

// BenchmarkTopKZipf is serve-read's top-k: k = 10.
func BenchmarkTopKZipf(b *testing.B) {
	var dst []Scored
	benchZipf(b, func(ix *Index, sig *QuerySig) { dst = ix.AppendTopKSig(dst[:0], sig, 10) }, nil, false)
}

// BenchmarkSearchWholeRecord is paper-batch's and serve-mixed's search shape:
// whole indexed records of the DESIGN.md corpus as queries, at t* = 0.5, by id
// (SearchSig) and scored with a page of 100 (AppendSearchSigScored).
// plane-query-% is the share of the queries with ⌈θ⌉ ≤ n_q, whose records can
// qualify on their buffers alone: the queries that add up the counter planes.
// hits/op is the mean qualifying count.
func BenchmarkSearchWholeRecord(b *testing.B) {
	const tstar = 0.5
	d := designCorpus(b)
	ix, err := BuildIndex(d, Options{BufferBits: AutoBuffer})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	sigs := make([]*QuerySig, 1024)
	planed := 0
	for i := range sigs {
		sig := ix.Sketch(d.Records[rng.Intn(len(d.Records))])
		if planeQuery(sig, tstar) {
			planed++
		}
		sigs[i] = sig
	}
	share := 100 * float64(planed) / float64(len(sigs))
	b.Run("ids", func(b *testing.B) {
		hits := 0
		for i := range b.N {
			hits += len(ix.SearchSig(sigs[i%len(sigs)], tstar))
		}
		b.ReportMetric(share, "plane-query-%")
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	})
	b.Run("scored", func(b *testing.B) {
		var dst []Scored
		hits := 0
		for i := range b.N {
			var n int
			dst, n = ix.AppendSearchSigScored(dst[:0], sigs[i%len(sigs)], tstar, 100)
			hits += n
		}
		b.ReportMetric(share, "plane-query-%")
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	})
}
