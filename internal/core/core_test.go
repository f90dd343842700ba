package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

const testSeed = 0xFEED

func testDataset(t *testing.T, m int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.SyntheticConfig{
		NumRecords: m, Universe: 4000,
		AlphaFreq: 1.1, AlphaSize: 2.2,
		MinSize: 40, MaxSize: 500,
	}
	d, err := dataset.Synthetic(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func defaultOpts() Options {
	return Options{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: testSeed}
}

func TestBuildIndexValidation(t *testing.T) {
	d := testDataset(t, 50)
	cases := []Options{
		{BudgetFraction: -1},
		{BudgetFraction: 1.5},
		{BudgetUnits: -5},
		{BufferBits: -2},
	}
	for i, o := range cases {
		if _, err := BuildIndex(d, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, err := BuildIndex(nil, defaultOpts()); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := BuildIndex(&dataset.Dataset{Universe: 1}, defaultOpts()); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestBuildIndexRespectsBudget(t *testing.T) {
	d := testDataset(t, 300)
	for _, frac := range []float64{0.05, 0.1, 0.2} {
		ix, err := BuildIndex(d, Options{BudgetFraction: frac, BufferBits: AutoBuffer, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		budget := int(frac * float64(d.TotalElements()))
		used := ix.UsedUnits()
		// Exact-fit τ selection may overshoot slightly on hash ties
		// (identical elements in different records share one hash value).
		if used > budget+budget/10 {
			t.Errorf("frac=%v: used %d units for budget %d", frac, used, budget)
		}
		if used < budget/2 {
			t.Errorf("frac=%v: used only %d of %d units", frac, used, budget)
		}
	}
}

func TestBuildIndexZeroBuffer(t *testing.T) {
	d := testDataset(t, 100)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: NoBuffer, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if ix.BufferBits() != 0 {
		t.Errorf("BufferBits = %d, want 0", ix.BufferBits())
	}
	if len(ix.BufferElements()) != 0 {
		t.Errorf("buffered elements = %d, want 0", len(ix.BufferElements()))
	}
}

func TestBuildIndexManualBufferRounded(t *testing.T) {
	d := testDataset(t, 100)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: 13, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if ix.BufferBits() != 16 {
		t.Errorf("BufferBits = %d, want 16 (13 rounded up to byte)", ix.BufferBits())
	}
}

func TestBufferHoldsMostFrequentElements(t *testing.T) {
	d := testDataset(t, 200)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: 32, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	want := d.TopFrequent(32)
	got := ix.BufferElements()
	if len(got) != len(want) {
		t.Fatalf("buffer has %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buffer element %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEstimateMatchesTruthOnExactRegime(t *testing.T) {
	// With budget = 100% of elements, τ = 1 and every sketch is complete,
	// so the estimator must be exact for every pair.
	d := testDataset(t, 60)
	ix, err := BuildIndex(d, Options{BudgetFraction: 1.0, BufferBits: NoBuffer, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tau() != 1 {
		t.Fatalf("tau = %v, want 1", ix.Tau())
	}
	for qi := 0; qi < 10; qi++ {
		q := d.Records[qi]
		sig := ix.Sketch(q)
		for i := 0; i < 20; i++ {
			got := ix.EstimateContainment(sig, i)
			want := q.Containment(d.Records[i])
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("q=%d x=%d: estimate %v, truth %v", qi, i, got, want)
			}
		}
	}
}

func TestEstimateAccuracyDefaultBudget(t *testing.T) {
	d := testDataset(t, 400)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Mean absolute containment error across query-record pairs should be
	// small at a 10% budget.
	queries := d.SampleQueries(20, 5)
	var errSum float64
	var n int
	for _, q := range queries {
		sig := ix.Sketch(q)
		for i := range d.Records {
			got := ix.EstimateContainment(sig, i)
			want := q.Containment(d.Records[i])
			errSum += math.Abs(got - want)
			n++
		}
	}
	mae := errSum / float64(n)
	if mae > 0.08 {
		t.Errorf("mean absolute containment error %v too large", mae)
	}
}

func TestSearchEquivalentToLinear(t *testing.T) {
	d := testDataset(t, 300)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tstar := range []float64{0.2, 0.5, 0.8} {
		for _, q := range d.SampleQueries(15, 9) {
			fast := ix.Search(q, tstar)
			slow := ix.SearchLinear(q, tstar)
			if len(fast) != len(slow) {
				t.Fatalf("t*=%v: indexed %d results, linear %d", tstar, len(fast), len(slow))
			}
			for i := range fast {
				if fast[i] != slow[i] {
					t.Fatalf("t*=%v: result %d differs: %d vs %d", tstar, i, fast[i], slow[i])
				}
			}
		}
	}
}

// TestSearchMatchesLinearEveryProfile: the posting walk and the
// single-record path count the same K∩ and score it alike, on every Table II
// profile at the Quick scale of internal/experiments (a quarter of the
// records, seed 42, 15 queries), at budgets of 5 % and 10 % and t* of 0.3,
// 0.5, 0.7 and 0.9. Search returns what one EstimateIntersection per query
// and record admits at each t* (SearchLinear's rule, which the t* = 0.5 round
// also calls), and each scored hit is EstimateContainment to the bit. The
// first query of each index, shuffled, estimates as its sorted self. About
// 0.5 s on two cores.
func TestSearchMatchesLinearEveryProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range dataset.Profiles() {
		cfg := p.Config
		cfg.NumRecords /= 4
		d, err := dataset.Synthetic(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		queries := d.SampleQueries(15, 43)
		for _, budget := range []float64{0.05, 0.10} {
			ix, err := BuildIndex(d, Options{BudgetFraction: budget, BufferBits: AutoBuffer, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s at %v", p.Name, budget)
			est := make([]float64, ix.NumRecords())
			for qi, q := range queries {
				sig := ix.Sketch(q)
				for i := range est {
					est[i] = ix.EstimateIntersection(sig, i)
				}
				if qi == 0 {
					shuffled := slices.Clone(q)
					rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
					mixed := ix.Sketch(shuffled)
					for i, want := range est {
						if got := ix.EstimateIntersection(mixed, i); got != want {
							t.Fatalf("%s, q0 shuffled: record %d estimates %v, sorted %v", label, i, got, want)
						}
					}
				}
				for _, tstar := range []float64{0.3, 0.5, 0.7, 0.9} {
					want := []int{}
					for i, e := range est {
						if e >= tstar*float64(sig.Size) {
							want = append(want, i)
						}
					}
					if got := ix.SearchSig(sig, tstar); !slices.Equal(got, want) {
						t.Fatalf("%s, q%d t*=%v: Search %v, Algorithm 2 %v", label, qi, tstar, got, want)
					}
					if tstar == 0.5 {
						if got := ix.SearchLinear(q, tstar); !slices.Equal(got, want) {
							t.Fatalf("%s, q%d t*=%v: SearchLinear %v, from the estimates %v", label, qi, tstar, got, want)
						}
					}
					scored, total := ix.SearchSigScored(sig, tstar, 0)
					if total != len(want) {
						t.Fatalf("%s, q%d t*=%v: scored search counts %d hits, want %d", label, qi, tstar, total, len(want))
					}
					for _, hit := range scored {
						if c := ix.EstimateContainment(sig, hit.ID); hit.Score != c {
							t.Fatalf("%s, q%d t*=%v: record %d scored %v, EstimateContainment %v", label, qi, tstar, hit.ID, hit.Score, c)
						}
					}
				}
			}
		}
	}
}

func TestSearchZeroThresholdReturnsAll(t *testing.T) {
	d := testDataset(t, 50)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Search(d.Records[0], 0)
	if len(got) != 50 {
		t.Errorf("t*=0 returned %d records, want all 50", len(got))
	}
}

func TestSearchSelfQueryFindsSelf(t *testing.T) {
	d := testDataset(t, 200)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	for i := 0; i < 40; i++ {
		res := ix.Search(d.Records[i], 0.5)
		found := false
		for _, id := range res {
			if id == i {
				found = true
				break
			}
		}
		if !found {
			missed++
		}
	}
	// C(X, X) = 1; a handful of misses can occur from estimator noise at
	// tiny sketch sizes, but the vast majority must be found.
	if missed > 4 {
		t.Errorf("self-query missed %d/40 times", missed)
	}
}

func TestSearchQualityAgainstGroundTruth(t *testing.T) {
	d := testDataset(t, 400)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	const tstar = 0.5
	var tp, fp, fn int
	for _, q := range d.SampleQueries(30, 3) {
		got := map[int]bool{}
		for _, id := range ix.Search(q, tstar) {
			got[id] = true
		}
		for i, x := range d.Records {
			truth := q.Containment(x) >= tstar
			switch {
			case truth && got[i]:
				tp++
			case !truth && got[i]:
				fp++
			case truth && !got[i]:
				fn++
			}
		}
	}
	if tp == 0 {
		t.Fatal("search found no true positives at all")
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	f1 := 2 * precision * recall / (precision + recall)
	if f1 < 0.6 {
		t.Errorf("F1 = %v (precision %v, recall %v), want ≥ 0.6", f1, precision, recall)
	}
}

func TestGBKMVNotWorseThanGKMV(t *testing.T) {
	// "Comparison with G-KMV": with the cost-model buffer the F1 must not
	// be (meaningfully) worse than buffer-less G-KMV at the same budget.
	d := testDataset(t, 400)
	f1Of := func(bufferBits int) float64 {
		ix, err := BuildIndex(d, Options{BudgetFraction: 0.05, BufferBits: bufferBits, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		const tstar = 0.5
		var tp, fp, fn int
		for _, q := range d.SampleQueries(40, 13) {
			got := map[int]bool{}
			for _, id := range ix.Search(q, tstar) {
				got[id] = true
			}
			for i, x := range d.Records {
				truth := q.Containment(x) >= tstar
				switch {
				case truth && got[i]:
					tp++
				case !truth && got[i]:
					fp++
				case truth && !got[i]:
					fn++
				}
			}
		}
		if tp == 0 {
			return 0
		}
		p := float64(tp) / float64(tp+fp)
		r := float64(tp) / float64(tp+fn)
		return 2 * p * r / (p + r)
	}
	gb := f1Of(AutoBuffer)
	g := f1Of(NoBuffer)
	if gb < g-0.05 {
		t.Errorf("GB-KMV F1 %v materially worse than G-KMV %v", gb, g)
	}
}

func TestUsedUnitsAccounting(t *testing.T) {
	d := testDataset(t, 100)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.1, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	wantBuf := 100 * 64 / BufferUnitBits
	// Recount the sketch units independently of the arena accounting: one
	// unit per non-buffered element occurrence whose hash clears τ.
	sketch := 0
	for _, rec := range d.Records {
		for _, e := range rec {
			if _, buffered := ix.bitOf.lookup(e); buffered {
				continue
			}
			if hash.UnitHash(e, testSeed) < ix.Tau() { // τ is the kept share: [0, τ)
				sketch++
			}
		}
	}
	if got := ix.UsedUnits(); got != wantBuf+sketch {
		t.Errorf("UsedUnits = %d, want %d", got, wantBuf+sketch)
	}
	if ix.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestAddRecordSearchable(t *testing.T) {
	d := testDataset(t, 150)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	rec := d.Records[0] // duplicate of record 0: containment 1 with itself
	before := ix.NumRecords()
	ix.AddRecords([]dataset.Record{rec})
	if ix.NumRecords() != before+1 {
		t.Fatalf("NumRecords = %d, want %d", ix.NumRecords(), before+1)
	}
	res := ix.Search(rec, 0.5)
	found := false
	for _, id := range res {
		if id == before {
			found = true
		}
	}
	if !found {
		t.Error("newly added record not found by its own query")
	}
}

func TestAddRecordKeepsBudget(t *testing.T) {
	d := testDataset(t, 150)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	budget := ix.BudgetUnits()
	// Add many records; the threshold must shrink to hold the budget.
	tauBefore := ix.Tau()
	for i := 0; i < 30; i++ {
		ix.AddRecords([]dataset.Record{d.Records[i%len(d.Records)]})
	}
	if used := ix.UsedUnits(); used > budget+budget/10 {
		t.Errorf("after inserts: used %d units for budget %d", used, budget)
	}
	if ix.Tau() > tauBefore {
		t.Errorf("tau grew after inserts: %v > %v", ix.Tau(), tauBefore)
	}
	// Index must still answer queries consistently.
	q := d.Records[3]
	fast := ix.Search(q, 0.5)
	slow := ix.SearchLinear(q, 0.5)
	if len(fast) != len(slow) {
		t.Errorf("post-insert search mismatch: %d vs %d", len(fast), len(slow))
	}
}

func TestSketchQueryWithForeignElements(t *testing.T) {
	// A query containing elements outside the dataset universe must not
	// crash and must contribute nothing to intersections.
	d := testDataset(t, 80)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.NewRecord([]hash.Element{999999, 1000000, 1000001})
	sig := ix.Sketch(q)
	for i := range d.Records {
		if got := ix.EstimateIntersection(sig, i); got != 0 {
			t.Fatalf("foreign query intersects record %d: %v", i, got)
		}
	}
	if res := ix.Search(q, 0.5); len(res) != 0 {
		t.Errorf("foreign query returned %d records", len(res))
	}
}

func TestEstimateContainmentZeroSizeQuery(t *testing.T) {
	d := testDataset(t, 30)
	ix, err := BuildIndex(d, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	sig := ix.Sketch(dataset.Record{})
	if got := ix.EstimateContainment(sig, 0); got != 0 {
		t.Errorf("zero-size query containment = %v", got)
	}
}
