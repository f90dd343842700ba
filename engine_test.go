package gbkmv_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"gbkmv"
	"gbkmv/internal/dataset"
)

// engineCorpus builds a shared power-law corpus plus a query sample, the
// workload every registered engine is exercised on.
func engineCorpus(t testing.TB, numRecords int) (records []gbkmv.Record, queries []gbkmv.Record) {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: numRecords, Universe: 4000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 8, MaxSize: 120,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return d.Records, d.SampleQueries(12, 8)
}

// recallFloors is the per-engine minimum Search recall against the exact
// backend on the shared corpus (fixed seeds, so deterministic) at threshold
// 0.5 and budget fraction 0.3. The ordering is the paper's own narrative on
// skewed data: the buffer makes GB-KMV near-perfect, G-KMV without it loses
// whichever frequent elements hash above τ, plain KMV is further capped by
// min(k_Q, k_X), MinHash suffers the same size-skew, and the LSH family
// leans on recall by construction. Floors sit below the measured values
// (0.98, 0.37, 0.19, 0.23, 0.94, 0.89, 1.0) with margin; a regression that
// halves any engine's recall still trips them.
var recallFloors = map[string]float64{
	"gbkmv":       0.90,
	"gkmv":        0.25,
	"kmv":         0.12,
	"minhash":     0.15,
	"lshforest":   0.85,
	"lshensemble": 0.80,
	"exact":       1.0,
}

func buildEngine(t testing.TB, name string, records []gbkmv.Record) gbkmv.Engine {
	t.Helper()
	e, err := gbkmv.NewEngine(name, records, gbkmv.EngineOptions{
		BudgetFraction: 0.3,
		Seed:           42,
	})
	if err != nil {
		t.Fatalf("NewEngine(%s): %v", name, err)
	}
	return e
}

// TestEnginesRegistered pins the contract of the acceptance criteria: at
// least the seven shipped backends resolve through NewEngine, and every
// registered name has a recall floor in this suite.
func TestEnginesRegistered(t *testing.T) {
	names := gbkmv.Engines()
	if len(names) < 6 {
		t.Fatalf("only %d engines registered: %v", len(names), names)
	}
	for _, want := range []string{"gbkmv", "gkmv", "kmv", "minhash", "lshforest", "lshensemble", "exact"} {
		if _, ok := recallFloors[want]; !ok {
			t.Errorf("no recall floor for %q", want)
		}
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("engine %q not registered (have %v)", want, names)
		}
	}
	for _, n := range names {
		if _, ok := recallFloors[n]; !ok {
			t.Errorf("registered engine %q missing from the cross-engine suite's floors", n)
		}
	}
}

func TestNewEngineErrors(t *testing.T) {
	if _, err := gbkmv.NewEngine("no-such-engine", []gbkmv.Record{{1}}, gbkmv.EngineOptions{}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := gbkmv.NewEngine("gbkmv", nil, gbkmv.EngineOptions{}); err == nil {
		t.Error("empty collection accepted")
	}
	if e, err := gbkmv.NewEngine("", []gbkmv.Record{{1, 2, 3}}, gbkmv.EngineOptions{BudgetUnits: 16}); err != nil {
		t.Errorf("empty name: %v", err)
	} else if e.EngineName() != gbkmv.DefaultEngine {
		t.Errorf("empty name resolved to %q", e.EngineName())
	}
}

// TestCrossEngineRecall builds every registered engine on the shared corpus
// and asserts the Search recall floor against the exact backend, plus basic
// Search/Estimate coherence.
func TestCrossEngineRecall(t *testing.T) {
	records, queries := engineCorpus(t, 400)
	exact := buildEngine(t, "exact", records)
	const tstar = 0.5
	truth := make([][]int, len(queries))
	for i, q := range queries {
		truth[i] = exact.Search(q, tstar)
	}
	for _, name := range gbkmv.Engines() {
		t.Run(name, func(t *testing.T) {
			e := buildEngine(t, name, records)
			tp, fn := 0, 0
			for i, q := range queries {
				got := e.Search(q, tstar)
				in := make(map[int]bool, len(got))
				for _, id := range got {
					in[id] = true
				}
				for _, id := range truth[i] {
					if in[id] {
						tp++
					} else {
						fn++
					}
				}
			}
			recall := 1.0
			if tp+fn > 0 {
				recall = float64(tp) / float64(tp+fn)
			}
			if floor := recallFloors[name]; recall < floor {
				t.Errorf("recall %.3f below floor %.3f (tp=%d fn=%d)", recall, floor, tp, fn)
			}
		})
	}
}

// topkFloors is the per-engine minimum top-10 recall against the exact
// backend's top-10 on the shared corpus (measured: 0.78, 0.44, 0.28, 0.31,
// 0.55, 0.62, 1.0 — floors sit below with margin, same rationale as
// recallFloors).
var topkFloors = map[string]float64{
	"gbkmv":       0.60,
	"gkmv":        0.30,
	"kmv":         0.18,
	"minhash":     0.20,
	"lshforest":   0.40,
	"lshensemble": 0.45,
	"exact":       1.0,
}

// TestCrossEngineTopKRecall asserts each engine's top-10 lists recover a
// per-engine floor of the exact backend's top-10 across the query sample.
func TestCrossEngineTopKRecall(t *testing.T) {
	records, queries := engineCorpus(t, 400)
	exact := buildEngine(t, "exact", records)
	truth := make([]map[int]bool, len(queries))
	total := 0
	for i, q := range queries {
		truth[i] = map[int]bool{}
		for _, s := range exact.SearchTopK(q, 10) {
			truth[i][s.ID] = true
		}
		total += len(truth[i])
	}
	for _, name := range gbkmv.Engines() {
		t.Run(name, func(t *testing.T) {
			e := buildEngine(t, name, records)
			hit := 0
			for i, q := range queries {
				for _, s := range e.SearchTopK(q, 10) {
					if truth[i][s.ID] {
						hit++
					}
				}
			}
			if recall := float64(hit) / float64(total); recall < topkFloors[name] {
				t.Errorf("top-10 recall %.3f below floor %.3f (%d/%d)",
					recall, topkFloors[name], hit, total)
			}
		})
	}
}

// TestCrossEngineTopK asserts that for every engine the top-k list is
// ordered, bounded by k, consistent with Estimate, and that for a query that
// is an indexed record, the record itself makes the list (its containment is
// exactly 1 under every estimator, exact or sketch-based, because identical
// sets share identical signatures).
func TestCrossEngineTopK(t *testing.T) {
	records, _ := engineCorpus(t, 300)
	for _, name := range gbkmv.Engines() {
		t.Run(name, func(t *testing.T) {
			e := buildEngine(t, name, records)
			self := 17
			q := records[self]
			top := e.SearchTopK(q, 10)
			if len(top) == 0 || len(top) > 10 {
				t.Fatalf("topk returned %d hits", len(top))
			}
			foundSelf := false
			for i, s := range top {
				if i > 0 && top[i-1].Score < s.Score {
					t.Errorf("topk not sorted at %d: %.4f < %.4f", i, top[i-1].Score, s.Score)
				}
				if got := e.Estimate(q, s.ID); got != s.Score {
					t.Errorf("topk score %.4f disagrees with Estimate %.4f for id %d", s.Score, got, s.ID)
				}
				foundSelf = foundSelf || s.ID == self
			}
			if !foundSelf {
				t.Errorf("query record %d missing from its own top-10: %v", self, top)
			}
		})
	}
}

// TestCrossEngineSaveLoad round-trips every engine through the header-tagged
// SaveEngine/LoadEngine and asserts identical post-load search results —
// the property the server's snapshot/reload cycle depends on. The engine is
// built on part of the corpus and grown by AddBatch before saving, so the
// round-trip must reproduce the *resolved* build parameters (sketch sizes
// derived from the original collection), not re-derive them from the grown
// one.
func TestCrossEngineSaveLoad(t *testing.T) {
	records, queries := engineCorpus(t, 250)
	for _, name := range gbkmv.Engines() {
		t.Run(name, func(t *testing.T) {
			e := buildEngine(t, name, records[:200])
			e.AddBatch(records[200:])
			var buf bytes.Buffer
			if err := gbkmv.SaveEngine(&buf, e); err != nil {
				t.Fatal(err)
			}
			e2, err := gbkmv.LoadEngine(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if e2.EngineName() != name {
				t.Fatalf("loaded engine is %q", e2.EngineName())
			}
			if e2.Len() != e.Len() {
				t.Fatalf("loaded %d records, want %d", e2.Len(), e.Len())
			}
			for _, q := range queries {
				for _, th := range []float64{0.3, 0.7} {
					if got, want := e2.Search(q, th), e.Search(q, th); !reflect.DeepEqual(got, want) {
						t.Fatalf("t=%.1f: post-load search %v != %v", th, got, want)
					}
				}
			}
		})
	}
}

// TestCrossEngineAdd: dynamic inserts land on every engine (whether
// incremental or rebuild-on-add). The inserted records duplicate existing
// ones so the self-query test is meaningful for lossy sketches too: an
// identical set gets an identical signature, so the insert scores exactly
// as well as the original it copies.
func TestCrossEngineAdd(t *testing.T) {
	records, _ := engineCorpus(t, 150)
	extra := []gbkmv.Record{records[3], records[7]}
	for _, name := range gbkmv.Engines() {
		t.Run(name, func(t *testing.T) {
			e := buildEngine(t, name, records)
			ids := e.AddBatch(extra)
			if want := []int{150, 151}; !reflect.DeepEqual(ids, want) {
				t.Fatalf("AddBatch ids = %v, want %v", ids, want)
			}
			if e.Len() != 152 {
				t.Fatalf("Len = %d after insert", e.Len())
			}
			// Wherever the original ranks for its own query, the duplicate
			// must rank equally: identical signature, identical estimate.
			if got, want := e.Estimate(extra[0], 150), e.Estimate(extra[0], 3); got != want {
				t.Errorf("duplicate estimates %.4f, original %.4f", got, want)
			}
			hits := e.Search(extra[0], 0.5)
			foundOrig, foundDup := false, false
			for _, id := range hits {
				foundOrig = foundOrig || id == 3
				foundDup = foundDup || id == 150
			}
			if foundOrig != foundDup {
				t.Errorf("original found=%v but duplicate found=%v: %v", foundOrig, foundDup, hits)
			}
		})
	}
}

// TestCrossEnginePreparedQuery exercises the PreparedQuery contract on every
// engine: prepared results match direct calls, SetSize rescales estimates,
// and clones are independent.
func TestCrossEnginePreparedQuery(t *testing.T) {
	records, queries := engineCorpus(t, 200)
	q := queries[0]
	for _, name := range gbkmv.Engines() {
		t.Run(name, func(t *testing.T) {
			e := buildEngine(t, name, records)
			pq := e.PrepareQuery(q)
			if pq.Size() != len(q) {
				t.Fatalf("Size = %d, want %d", pq.Size(), len(q))
			}
			if got, want := pq.Search(0.5), e.Search(q, 0.5); !reflect.DeepEqual(got, want) {
				t.Errorf("prepared search %v != direct %v", got, want)
			}
			if got, want := pq.TopK(5), e.SearchTopK(q, 5); !reflect.DeepEqual(got, want) {
				t.Errorf("prepared topk %v != direct %v", got, want)
			}
			if got, want := pq.Estimate(3), e.Estimate(q, 3); got != want {
				t.Errorf("prepared estimate %.4f != direct %.4f", got, want)
			}
			// Growing |Q| must shrink every (nonzero, unclamped) estimate:
			// exactly ∝ 1/|Q| for the intersection/|Q| estimators, and
			// monotonically for the Jaccard-transformation family (where
			// |Q| enters Equation 12 nonlinearly).
			base := pq.Estimate(0)
			clone := pq.Clone()
			clone.SetSize(2 * len(q))
			if pq.Size() != len(q) {
				t.Errorf("SetSize on the clone leaked into the original (size %d)", pq.Size())
			}
			if base > 0 && base < 0.99 { // below any clamp
				got := clone.Estimate(0)
				switch name {
				case "gbkmv", "gkmv", "kmv", "exact":
					if got < base*0.49 || got > base*0.51 {
						t.Errorf("estimate at 2|Q| = %.4f, want ≈ %.4f", got, base/2)
					}
				default:
					if got >= base {
						t.Errorf("estimate at 2|Q| = %.4f did not shrink from %.4f", got, base)
					}
				}
			}
		})
	}
}

// TestQueryCloneConcurrent hammers clones of one prepared query from many
// goroutines (run with -race): the documented per-goroutine reuse pattern.
func TestQueryCloneConcurrent(t *testing.T) {
	records, queries := engineCorpus(t, 200)
	ix, err := gbkmv.Build(records, gbkmv.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	pq := ix.Prepare(queries[0])
	want := pq.Search(0.5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := pq.Clone()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				if got := c.Search(0.5); !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: clone search diverged", g)
					return
				}
				c.Estimate(rng.Intn(len(records)))
			}
		}(g)
	}
	wg.Wait()
}

// TestCrossEngineStats: every engine reports its name and record count, and
// the sketch-budgeted ones report nonzero footprints.
func TestCrossEngineStats(t *testing.T) {
	records, _ := engineCorpus(t, 100)
	for _, name := range gbkmv.Engines() {
		e := buildEngine(t, name, records)
		st := e.EngineStats()
		if st.Engine != name {
			t.Errorf("%s: stats report engine %q", name, st.Engine)
		}
		if st.NumRecords != 100 {
			t.Errorf("%s: stats report %d records", name, st.NumRecords)
		}
		if st.SizeBytes <= 0 {
			t.Errorf("%s: SizeBytes = %d", name, st.SizeBytes)
		}
		// The bytes around the sketch are reported by the engines that keep
		// them in a form they can size, and zero elsewhere.
		if own := name == "gbkmv" || name == "gkmv"; own != (st.RecordBytes > 0) || own != (st.IndexBytes > 0) {
			t.Errorf("%s: RecordBytes = %d, IndexBytes = %d", name, st.RecordBytes, st.IndexBytes)
		}
	}
}

// TestPrepareTokensEngineGeneric: the free-function PrepareTokens applies
// the unknown-token size correction identically on every engine.
func TestPrepareTokensEngineGeneric(t *testing.T) {
	voc := gbkmv.NewVocabulary()
	records := []gbkmv.Record{
		voc.Record([]string{"five", "guys", "burgers", "and", "fries"}),
		voc.Record([]string{"five", "kitchen", "berkeley"}),
	}
	for _, name := range gbkmv.Engines() {
		t.Run(name, func(t *testing.T) {
			e, err := gbkmv.NewEngine(name, records, gbkmv.EngineOptions{BudgetFraction: 1, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Two known tokens, two distinct unknown ones: |Q| = 4.
			pq, err := gbkmv.PrepareTokens(e, voc, []string{"five", "guys", "zzz", "yyy", "zzz"})
			if err != nil {
				t.Fatal(err)
			}
			if pq.Size() != 4 {
				t.Fatalf("size = %d, want 4", pq.Size())
			}
			if _, err := gbkmv.PrepareTokens(e, voc, nil); err == nil {
				t.Error("empty query accepted")
			}
		})
	}
}

// sortedIDs is a helper asserting ascending order, which the Engine contract
// promises for Search results.
func TestCrossEngineSearchSorted(t *testing.T) {
	records, queries := engineCorpus(t, 200)
	for _, name := range gbkmv.Engines() {
		e := buildEngine(t, name, records)
		for _, q := range queries[:4] {
			ids := e.Search(q, 0.2)
			if !sort.IntsAreSorted(ids) {
				t.Errorf("%s: search results not ascending: %v", name, ids)
			}
		}
	}
}

// TestCrossEngineSearchScored pins every engine's scored search to its
// decomposed reference: SearchScored(t*, limit) must return exactly the
// Search(t*) ids (ascending, truncated at limit), report the full result
// count as total, score each returned hit identically to Estimate, and
// return no hit whose estimate is under the threshold. This is the contract the server's read path relies on when it stops
// re-estimating returned hits.
func TestCrossEngineSearchScored(t *testing.T) {
	records, queries := engineCorpus(t, 250)
	for _, name := range gbkmv.Engines() {
		t.Run(name, func(t *testing.T) {
			e := buildEngine(t, name, records)
			for _, q := range queries[:6] {
				pq := e.PrepareQuery(q)
				for _, tstar := range []float64{0, 0.3, 0.7} {
					ids := e.Search(q, tstar)
					for _, limit := range []int{0, 1, 5, len(ids)} {
						hits, total := pq.Clone().SearchScored(tstar, limit)
						if total != len(ids) {
							t.Fatalf("t*=%v limit=%d: total %d, want %d", tstar, limit, total, len(ids))
						}
						want := ids
						if limit > 0 && len(want) > limit {
							want = want[:limit]
						}
						if len(hits) != len(want) {
							t.Fatalf("t*=%v limit=%d: %d hits, want %d", tstar, limit, len(hits), len(want))
						}
						for i, h := range hits {
							if h.ID != want[i] {
								t.Fatalf("t*=%v limit=%d: hit %d id %d, want %d", tstar, limit, i, h.ID, want[i])
							}
							if est := e.Estimate(q, h.ID); h.Score != est {
								t.Fatalf("t*=%v: id %d scored %v, Estimate %v", tstar, h.ID, h.Score, est)
							}
							// lshensemble returns its partitions' candidates
							// unverified: that is LSH-E's design.
							if name != "lshensemble" && h.Score < tstar {
								t.Fatalf("t*=%v: id %d is a hit at estimate %v", tstar, h.ID, h.Score)
							}
						}
					}
				}
			}
		})
	}
}

// TestCrossEngineEmptyQuery: an empty query — prepared from no elements, or a
// real one whose size was set to 0 — is contained in nothing, on every engine
// and through NewSegmented: Estimate is 0, TopK is empty, and no threshold
// above 0 has a hit. (Search and Estimate used to contradict each other here:
// gbkmv and gkmv returned every record, scored 0.)
func TestCrossEngineEmptyQuery(t *testing.T) {
	records, queries := engineCorpus(t, 120)
	for _, name := range gbkmv.Engines() {
		bare := buildEngine(t, name, records)
		seg, err := gbkmv.NewSegmented(name, 3, records, gbkmv.EngineOptions{BudgetFraction: 0.3, Seed: 42})
		if err != nil {
			t.Fatalf("NewSegmented(%s): %v", name, err)
		}
		for layout, e := range map[string]gbkmv.Engine{"bare": bare, "segmented": seg} {
			zeroed := e.PrepareQuery(queries[0])
			zeroed.SetSize(0)
			for kind, pq := range map[string]gbkmv.PreparedQuery{"no elements": e.PrepareQuery(gbkmv.Record{}), "SetSize(0)": zeroed} {
				label := name + "/" + layout + "/" + kind
				if pq.Size() != 0 {
					t.Fatalf("%s: Size = %d", label, pq.Size())
				}
				for i := 0; i < e.Len(); i += 13 {
					if est := pq.Estimate(i); est != 0 {
						t.Errorf("%s: Estimate(%d) = %v", label, i, est)
					}
				}
				if top := pq.TopK(5); len(top) != 0 {
					t.Errorf("%s: TopK = %v", label, top)
				}
				for _, tstar := range []float64{0.01, 0.5, 1} {
					if ids := pq.Search(tstar); len(ids) != 0 {
						t.Errorf("%s: Search(%v) returned %d records", label, tstar, len(ids))
					}
					if hits, total := pq.SearchScored(tstar, 0); len(hits) != 0 || total != 0 {
						t.Errorf("%s: SearchScored(%v, 0) = %d hits, total %d", label, tstar, len(hits), total)
					}
				}
			}
		}
	}
}
