package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
	"gbkmv/internal/hash"
)

// The 53-bit reference: the estimator as it ran before keys were 32-bit
// fixed point — float64 unit hashes, three-way merge, U(k) the largest hash
// itself. It lives in this test file only. The key-based path must select
// the same elements (UnitHash < τ ⇔ Key32 ≤ cut when τ = KeyUnit(cut)),
// count the same K and K∩, and estimate within the width of one key.

// refSketch is one record's G-KMV sketch in unit hashes.
type refSketch struct {
	hashes   []float64
	complete bool
}

func refSketchOf(rec dataset.Record, tau float64, seed uint64) refSketch {
	var hs []float64
	for _, e := range rec {
		if v := hash.UnitHash(e, seed); v < tau {
			hs = append(hs, v)
		}
	}
	sort.Float64s(hs)
	return refSketch{hashes: hs, complete: len(hs) == len(rec)}
}

// refIntersect is Equations 24–25 over two reference sketches.
func refIntersect(a, b refSketch) (k, kInter int, dInter float64) {
	i, j, uk := 0, 0, 0.0
	for i < len(a.hashes) || j < len(b.hashes) {
		switch {
		case j == len(b.hashes) || (i < len(a.hashes) && a.hashes[i] < b.hashes[j]):
			uk = a.hashes[i]
			i++
		case i == len(a.hashes) || a.hashes[i] > b.hashes[j]:
			uk = b.hashes[j]
			j++
		default:
			uk = a.hashes[i]
			kInter++
			i++
			j++
		}
		k++
	}
	switch {
	case a.complete && b.complete:
		dInter = float64(kInter)
	case k >= 2 && uk > 0:
		dInter = float64(kInter) / float64(k) * float64(k-1) / uk
	}
	return k, kInter, dInter
}

// refIndex is the reference signature store of an index: one refSketch per
// record over its non-buffered elements under the index's live threshold.
type refIndex struct {
	ix       *Index
	sketches []refSketch
}

func newRefIndex(ix *Index) refIndex {
	ref := refIndex{ix: ix, sketches: make([]refSketch, ix.recs.Len())}
	for i, rec := range recordsOf(ix) {
		ref.sketches[i] = refSketchOf(ref.rest(rec), ix.Tau(), ix.opt.Seed)
	}
	return ref
}

// rest returns rec's non-buffered elements.
func (ref refIndex) rest(rec dataset.Record) dataset.Record {
	rest := rec[:0:0]
	for _, e := range rec {
		if _, buffered := ref.ix.bitOf.lookup(e); !buffered {
			rest = append(rest, e)
		}
	}
	return rest
}

// estimate is Equation 27 over the reference store.
func (ref refIndex) estimate(sig *QuerySig, refQ refSketch, i int) float64 {
	_, _, dInter := refIntersect(refQ, ref.sketches[i])
	return float64(ref.ix.bufferOverlap(sig, i)) + dInter
}

// search is Algorithm 2 over the reference store.
func (ref refIndex) search(sig *QuerySig, refQ refSketch, tstar float64) []int {
	out := []int{}
	for i := range ref.sketches {
		if ref.estimate(sig, refQ, i) >= tstar*float64(sig.Size) {
			out = append(out, i)
		}
	}
	return out
}

// topK scores every record over the reference store: (score desc, id asc).
func (ref refIndex) topK(sig *QuerySig, refQ refSketch, k int) []int {
	scored := []Scored{}
	for i := range ref.sketches {
		if s := math.Min(1, ref.estimate(sig, refQ, i)/float64(sig.Size)); s > 0 {
			scored = append(scored, Scored{ID: i, Score: s})
		}
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].Score != scored[b].Score {
			return scored[a].Score > scored[b].Score
		}
		return scored[a].ID < scored[b].ID
	})
	ids := []int{}
	for _, s := range scored[:min(k, len(scored))] {
		ids = append(ids, s.ID)
	}
	return ids
}

// TestKeyMergeMatchesFloatReference: over seeds × τ × record sizes × skew,
// the key-based sketch of a pair selects what the reference selects — K and
// K∩ equal — and D̂∩ agrees to 1e-6 relative (a key stands for the upper edge
// of its 2⁻³²-wide bucket, the reference for a point inside it).
func TestKeyMergeMatchesFloatReference(t *testing.T) {
	pairs := 0
	for _, alphaFreq := range []float64{0.6, 1.2} {
		for _, maxSize := range []int{30, 2000} {
			d, err := dataset.Synthetic(dataset.SyntheticConfig{
				NumRecords: 40, Universe: 20 * maxSize,
				AlphaFreq: alphaFreq, AlphaSize: 2,
				MinSize: 5, MaxSize: maxSize,
			}, int64(maxSize))
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				for _, cut := range []uint32{math.MaxUint32, 1 << 31, 0x1999999A, 42949672} { // τ = 1, 0.5, 0.1, 0.01
					tau := hash.KeyUnit(cut)
					views := make([]gkmv.View, len(d.Records))
					refs := make([]refSketch, len(d.Records))
					for i, rec := range d.Records {
						views[i] = gkmv.MakeView(gkmv.BuildHashes(rec, tau, seed))
						refs[i] = refSketchOf(rec, tau, seed)
					}
					for i := range views {
						for j := range views {
							got := gkmv.IntersectViews(views[i], views[j])
							k, kInter, dInter := refIntersect(refs[i], refs[j])
							if got.K != k || got.KInter != kInter {
								t.Fatalf("seed %d τ=%v pair (%d,%d): K=%d K∩=%d, reference %d %d", seed, tau, i, j, got.K, got.KInter, k, kInter)
							}
							if math.Abs(got.DInter-dInter) > 1e-6*dInter {
								t.Fatalf("seed %d τ=%v pair (%d,%d): D̂∩ = %v, reference %v", seed, tau, i, j, got.DInter, dInter)
							}
							pairs++
						}
					}
				}
			}
		}
	}
	t.Logf("%d pairs", pairs)
}

// TestBuildHashesReproducesSummaries: gkmv.BuildHashes at the index's public
// Tau() and Seed() summarises to the index's own summary for every record —
// fresh, after threshold shrinks, and after a Load. The benchmark's kernel
// ladder builds its views this way; checkAgainstRef holds their summaries
// (and everything else) to the index bit for bit.
func TestBuildHashesReproducesSummaries(t *testing.T) {
	ix, err := BuildIndex(buildTestDataset(t, 21, 300), defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	stage := func(ix *Index, label string) {
		t.Helper()
		checkAgainstRef(t, ix, refBuild(ix, ix.cut), label)
		if got, ok := hash.UnitKey(ix.Tau()); !ok || got != ix.cut {
			t.Fatalf("%s: Tau() = %v does not name the cut %d", label, ix.Tau(), ix.cut)
		}
	}
	stage(ix, "fresh")
	ix.AddRecords(buildTestDataset(t, 22, 150).Records)
	if _, shrinks := ix.BuildCounters(); shrinks == 0 {
		t.Fatal("no threshold shrink; fixture too small")
	}
	stage(ix, "after shrinks")
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	stage(loaded, "loaded")
}

// TestDuplicateKeysInRun: Hash64 is a bijection, a 32-bit key is not — two
// elements of one record can share a key, so a run is ascending, not strictly
// ascending. Such a record is a valid sketch and survives Save/Load. The
// merge of two runs (gkmv.IntersectViews, the benchmark's kernel) counts the
// equal keys pairwise, as the two elements they are. The index counts K∩ by
// element — the search on the posting lists, the single-record estimates on
// the decoded record — so a key shared by two distinct elements is a match
// to neither.
func TestDuplicateKeysInRun(t *testing.T) {
	// Birthday search: among 300 000 elements ≈ 10 pairs collide in 32 bits.
	seen := make(map[uint32]hash.Element, 300000)
	var e1, e2 hash.Element
	for e := hash.Element(1); e2 == 0 && e <= 300000; e++ {
		k := hash.Key32(e, testSeed)
		if prev, ok := seen[k]; ok {
			e1, e2 = prev, e
		}
		seen[k] = e
	}
	if e2 == 0 {
		t.Fatal("no 32-bit collision among 300 000 elements under the test seed")
	}
	rng := rand.New(rand.NewSource(5))
	filler := func() hash.Element { return hash.Element(400000 + rng.Intn(1000)) }
	both := dataset.NewRecord([]hash.Element{e1, e2, filler(), filler()})
	one := dataset.NewRecord([]hash.Element{e1, filler(), filler()})
	none := dataset.NewRecord([]hash.Element{filler(), filler(), filler()})
	d := &dataset.Dataset{Records: []dataset.Record{both, one, none}, Universe: 500000}
	ix, err := BuildIndex(d, Options{BudgetFraction: 1, BufferBits: NoBuffer, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("an index with a duplicate key in a run does not load: %v", err)
	}
	for _, ix := range []*Index{ix, loaded} {
		run0, complete0 := gkmv.BuildHashes(both, ix.Tau(), ix.Seed())
		run1, complete1 := gkmv.BuildHashes(one, ix.Tau(), ix.Seed())
		view0, view1 := gkmv.MakeView(run0, complete0), gkmv.MakeView(run1, complete1)
		if len(run0) != len(both) || !slices.IsSorted(run0) || view0.Summary() != ix.summaryOf(0).gkmv() {
			t.Fatalf("run %v for a %d-element record, summary %+v", run0, len(both), ix.summaryOf(0).gkmv())
		}
		if i, _ := slices.BinarySearch(run0, hash.Key32(e1, testSeed)); run0[i] != run0[i+1] {
			t.Fatalf("run %v does not hold the colliding key twice", run0)
		}
		// Record 0 against itself: every key pairs off, the two equal ones
		// included. Against record 1 (which holds e1 only): one of the two
		// equal keys finds a partner, the union keeps the other.
		self := gkmv.IntersectViews(view0, view0)
		if self.K != len(both) || self.KInter != len(both) {
			t.Errorf("self merge: K=%d K∩=%d, want %d %d", self.K, self.KInter, len(both), len(both))
		}
		shared := len(both) + len(one) - len(dataset.NewRecord(append(slices.Clone(both), one...)))
		cross := gkmv.IntersectViews(view0, view1)
		if cross.KInter != shared || cross.K != len(both)+len(one)-shared {
			t.Errorf("cross merge: K=%d K∩=%d, want %d %d", cross.K, cross.KInter, len(both)+len(one)-shared, shared)
		}
		if got := ix.Search(both, 1); !slices.Equal(got, []int{0}) {
			t.Errorf("Search(both, 1) = %v, want [0]", got)
		}
		if got := ix.Search(dataset.Record{e1}, 1); !slices.Equal(got, []int{0, 1}) {
			t.Errorf("Search({e1}, 1) = %v, want [0 1]", got)
		}
		// {e2, f}, f an element of record 1 that record 0 lacks: record 1
		// shares f alone, K∩ = 1 of 2, though a merge of the query's keys
		// with record 1's would pair e2's key with e1's as well. The
		// single-record estimate and the scoring searches all read 0.5.
		var f hash.Element
		for _, e := range one {
			if e != e1 && !slices.Contains(both, e) {
				f = e
			}
		}
		q := dataset.NewRecord([]hash.Element{e2, f})
		sig := ix.Sketch(q)
		want := Scored{ID: 1, Score: 0.5}
		if got := ix.EstimateContainment(sig, 1); got != want.Score {
			t.Errorf("EstimateContainment({e2, f}, 1) = %v, want %v (K∩ = 1 of 2)", got, want.Score)
		}
		if scored, _ := ix.SearchSigScored(sig, 0.5, 0); !slices.Contains(scored, want) {
			t.Errorf("SearchSigScored({e2, f}, 0.5) = %v, want %+v among them", scored, want)
		}
		if top := ix.SearchTopKSig(sig, 3); !slices.Contains(top, want) {
			t.Errorf("SearchTopKSig({e2, f}, 3) = %v, want %+v among them", top, want)
		}
		if got := ix.Search(q, 1); slices.Contains(got, 1) {
			t.Errorf("Search({e2, f}, 1) = %v: record 1 shares one element of two", got)
		}
	}
	// e2 alone would match record 1 through e1's key in a merge of keys;
	// counted by element, neither search finds it there.
	for name, search := range map[string]func(dataset.Record, float64) []int{"Search": ix.Search, "SearchLinear": ix.SearchLinear} {
		if got := search(dataset.Record{e2}, 1); !slices.Equal(got, []int{0}) {
			t.Errorf("%s({e2}, 1) = %v, want [0]", name, got)
		}
	}
}
