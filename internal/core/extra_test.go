package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
	"gbkmv/internal/hash"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	d := testDataset(t, 200)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tau() != ix.Tau() || got.BufferBits() != ix.BufferBits() ||
		got.NumRecords() != ix.NumRecords() || got.BudgetUnits() != ix.BudgetUnits() {
		t.Fatal("round trip changed index parameters")
	}
	// Same search results for a sample of queries and thresholds.
	for _, tstar := range []float64{0.3, 0.6} {
		for _, q := range d.SampleQueries(10, 7) {
			a := ix.Search(q, tstar)
			b := got.Search(q, tstar)
			if len(a) != len(b) {
				t.Fatalf("t*=%v: %d vs %d results after round trip", tstar, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("t*=%v: result %d differs", tstar, i)
				}
			}
		}
	}
}

// TestLoadRebuildsTheBuiltPostings: the inverted lists Load derives are the
// ones BuildIndex built — element for element, id for id — through both
// counter layouts: the flat array of a collection whose ids are dense, and
// the element table of one whose few records sit high in a large id space.
func TestLoadRebuildsTheBuiltPostings(t *testing.T) {
	dense := testDataset(t, 200)
	sparse := &dataset.Dataset{Universe: dense.Universe}
	for _, r := range dense.Records[:3] {
		sparse.Records = append(sparse.Records, r[len(r)-5:])
	}
	for name, d := range map[string]*dataset.Dataset{"dense": dense, "sparse": sparse} {
		top := hash.Element(0)
		for _, r := range d.Records {
			top = max(top, r[len(r)-1])
		}
		if got := newElemCounters(top, d.TotalElements()).index == nil; got != (name == "dense") {
			t.Fatalf("%s fixture takes the other counter layout", name)
		}
		ix, err := BuildIndex(d, Options{BudgetFraction: 0.5, BufferBits: 8, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		built := listsOf(t, ix)
		if !reflect.DeepEqual(listsOf(t, got), built) {
			t.Fatalf("%s: the loaded inverted lists differ from the built ones", name)
		}
		if len(built) == 0 {
			t.Fatalf("%s: fixture has no inverted lists", name)
		}
		for bit := range ix.bufferElems {
			if !slices.Equal(columnIDs(t, got, bit), columnIDs(t, ix, bit)) {
				t.Fatalf("%s: bit column %d differs", name, bit)
			}
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSearchTopK(t *testing.T) {
	d := testDataset(t, 200)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := d.Records[5]
	top := ix.SearchTopK(q, 10)
	if len(top) == 0 {
		t.Fatal("no top-k results")
	}
	if len(top) > 10 {
		t.Fatalf("got %d results for k=10", len(top))
	}
	// Scores non-increasing; self should rank at (or very near) the top.
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("scores not sorted")
		}
	}
	selfRank := -1
	for i, s := range top {
		if s.ID == 5 {
			selfRank = i
		}
	}
	if selfRank == -1 || selfRank > 3 {
		t.Errorf("self query ranked %d (want near 0)", selfRank)
	}
}

func TestSearchTopKEdgeCases(t *testing.T) {
	d := testDataset(t, 50)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.SearchTopK(d.Records[0], 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := ix.SearchTopK(dataset.Record{}, 5); got != nil {
		t.Errorf("empty query returned %v", got)
	}
	// k larger than candidates: returns what exists, all positive.
	for _, s := range ix.SearchTopK(d.Records[0], 1000000) {
		if s.Score <= 0 {
			t.Errorf("non-positive score %v in top-k", s.Score)
		}
	}
}

func TestSearchTopKConsistentWithSearch(t *testing.T) {
	// Every Search(q, t*) hit must score ≥ t* and hence appear in a
	// sufficiently large top-k.
	d := testDataset(t, 150)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := d.Records[7]
	hits := ix.Search(q, 0.5)
	top := ix.SearchTopK(q, len(d.Records))
	inTop := map[int]float64{}
	for _, s := range top {
		inTop[s.ID] = s.Score
	}
	for _, id := range hits {
		if sc, ok := inTop[id]; !ok || sc < 0.5-1e-9 {
			t.Errorf("search hit %d missing from top-k or under threshold (%v)", id, sc)
		}
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	d := testDataset(t, 150)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries := d.SampleQueries(12, 9)
	batch := ix.SearchBatch(queries, 0.5)
	for i, q := range queries {
		want := ix.Search(q, 0.5)
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: batch %d vs sequential %d results", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("query %d result %d differs", i, j)
			}
		}
	}
}

func TestJoinSymmetryOfMembership(t *testing.T) {
	d := testDataset(t, 80)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	pairs := ix.Join(0.5)
	// Every pair must match a direct search, no self pairs, sorted order.
	for i, p := range pairs {
		if p.Q == p.X {
			t.Fatalf("self pair %v", p)
		}
		if i > 0 {
			prev := pairs[i-1]
			if p.Q < prev.Q || (p.Q == prev.Q && p.X <= prev.X) {
				t.Fatal("pairs not sorted")
			}
		}
	}
	// Spot-check consistency with Search.
	want := map[Pair]bool{}
	for q := range d.Records {
		for _, x := range ix.Search(d.Records[q], 0.5) {
			if x != q {
				want[Pair{Q: q, X: x}] = true
			}
		}
	}
	if len(want) != len(pairs) {
		t.Fatalf("join found %d pairs, per-query search %d", len(pairs), len(want))
	}
	for _, p := range pairs {
		if !want[p] {
			t.Fatalf("join pair %v not confirmed by search", p)
		}
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 1000, Universe: 10000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 40, MaxSize: 500,
	}
	d, err := dataset.Synthetic(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchIndexed(b *testing.B) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 4000, Universe: 20000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 40, MaxSize: 500,
	}
	d, err := dataset.Synthetic(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := d.Records[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 0.5)
	}
}

func BenchmarkSearchLinear(b *testing.B) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 4000, Universe: 20000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 40, MaxSize: 500,
	}
	d, err := dataset.Synthetic(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := d.Records[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchLinear(q, 0.5)
	}
}

func BenchmarkSketchQuery(b *testing.B) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 500, Universe: 10000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 40, MaxSize: 500,
	}
	d, err := dataset.Synthetic(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := d.Records[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Sketch(q)
	}
}

func TestQuerySigEstimatedSize(t *testing.T) {
	d := testDataset(t, 200)
	// A 30% budget keeps ~20+ hash values per query, where the (k−1)/U(k)
	// distinct estimator has usable relative error; at smaller budgets the
	// estimate degrades with 1/√k as theory says.
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.3, BufferBits: AutoBuffer, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	// Average the relative error over a sample of queries: the signature
	// alone approximates |Q| (Remark 1) — the exact count of its buffered
	// elements plus the G-KMV distinct estimate (k−1)/U(k) of the rest, the
	// union estimate of the sketch with itself.
	var relErr float64
	queries := d.SampleQueries(20, 31)
	for _, q := range queries {
		sig := ix.Sketch(q)
		// L_Q's summary is flagged complete for the estimate's exact
		// branch (sketchInto); as an estimate of the rest of Q it is not.
		lq := sig.sum
		lq.Complete = false
		_, got, _ := gkmv.Estimate(lq, lq, lq.K)
		if sig.buffer != nil {
			got += float64(sig.buffer.Count())
		}
		truth := float64(len(q))
		relErr += mathAbs(got-truth) / truth
	}
	relErr /= float64(len(queries))
	if relErr > 0.35 {
		t.Errorf("mean relative size-estimation error %v too large", relErr)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
