package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"gbkmv"
	"gbkmv/internal/dataset"
)

func TestTable2RowsComplete(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2(&buf, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.NumRecords <= 0 || r.AvgRecordLen <= 0 || r.DistinctElements <= 0 {
			t.Errorf("%s: degenerate stats %+v", r.Name, r)
		}
		// α2 is generated and fitted in the same parametrization: expect
		// rough agreement (bounded supports bias the fit somewhat).
		if !math.IsInf(r.AlphaSize, 1) && math.Abs(r.AlphaSize-r.TargetAlphaSize) > 1.0 {
			t.Errorf("%s: fitted α2 %.2f far from target %.2f", r.Name, r.AlphaSize, r.TargetAlphaSize)
		}
	}
	if !strings.Contains(buf.String(), "NETFLIX") {
		t.Error("report missing NETFLIX row")
	}
}

func TestTable3SpaceAccounting(t *testing.T) {
	rows, err := Table3(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// GB-KMV is configured at 10%; allow slack for hash ties and
		// rounding on the small quick-scale datasets.
		if r.GBKMVPercent < 5 || r.GBKMVPercent > 16 {
			t.Errorf("%s: GB-KMV space %.1f%%, want ≈10%%", r.Name, r.GBKMVPercent)
		}
		// LSH-E stores 256 values per record, which dwarfs 10% of N on all
		// scaled profiles.
		if r.LSHEPercent <= r.GBKMVPercent {
			t.Errorf("%s: LSH-E space %.1f%% not above GB-KMV %.1f%%",
				r.Name, r.LSHEPercent, r.GBKMVPercent)
		}
	}
}

func TestFig6Ordering(t *testing.T) {
	rows, err := Fig6(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 { // 7 profiles × 2 budgets
		t.Fatalf("got %d rows", len(rows))
	}
	// The paper's claim is aggregate, not per-point: compare mean F1.
	var mKMV, mGKMV, mGBKMV float64
	for _, r := range rows {
		mKMV += r.KMV
		mGKMV += r.GKMV
		mGBKMV += r.GBKMV
	}
	n := float64(len(rows))
	mKMV, mGKMV, mGBKMV = mKMV/n, mGKMV/n, mGBKMV/n
	if !(mGBKMV > mGKMV && mGKMV > mKMV) {
		t.Errorf("mean F1 ordering violated: KMV=%.3f G-KMV=%.3f GB-KMV=%.3f",
			mKMV, mGKMV, mGBKMV)
	}
}

func TestFig14Bounds(t *testing.T) {
	rows, err := Fig14(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Min < 0 || r.Max > 1 || r.Min > r.Avg || r.Avg > r.Max {
			t.Errorf("%s/%s: invalid distribution min=%.3f avg=%.3f max=%.3f",
				r.Dataset, r.Method, r.Min, r.Avg, r.Max)
		}
	}
}

func TestFig18ConstructionFaster(t *testing.T) {
	rows, err := Fig18(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	faster := 0
	for _, r := range rows {
		if r.GBKMV < r.LSHE {
			faster++
		}
	}
	// GB-KMV hashes once per element vs 256 times: it must win on nearly
	// every profile even at quick scale.
	if faster < len(rows)-1 {
		t.Errorf("GB-KMV construction faster on only %d/%d profiles", faster, len(rows))
	}
}

func TestAblationIndexedSearchIdenticalResults(t *testing.T) {
	res, err := AblationIndexedSearch(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.F1A != res.F1B {
		t.Errorf("indexed search changed results: F1 %.4f vs %.4f", res.F1A, res.F1B)
	}
}

func TestAblationGlobalThresholdWins(t *testing.T) {
	res, err := AblationGlobalThreshold(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.F1B < res.F1A {
		t.Errorf("G-KMV F1 %.3f below KMV %.3f (Theorem 3 violated on this workload)",
			res.F1B, res.F1A)
	}
}

func TestAblationPartitionedKMVWorse(t *testing.T) {
	res, err := AblationPartitionedKMV(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 4: partitioning should not help. Allow a small tolerance for
	// noise at quick scale.
	if res.F1B > res.F1A+0.1 {
		t.Errorf("partitioned KMV F1 %.3f clearly above single KMV %.3f", res.F1B, res.F1A)
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{
		"table2", "table3", "fig5", "fig6", "fig7-13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19a", "fig19b",
		"engines", "extra-baselines", "extra-analysis", "extra-scaling",
		"ablation-global-threshold", "ablation-buffer",
		"ablation-partitioned-kmv", "ablation-indexed-search",
		"ablation-cost-model",
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(names), len(want), names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %q", w)
		}
	}
}

func TestEnginesCompareThroughRegistry(t *testing.T) {
	rows, err := EnginesCompare(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(gbkmv.Engines()) {
		t.Fatalf("%d rows for %d registered engines", len(rows), len(gbkmv.Engines()))
	}
	for _, r := range rows {
		if r.Engine == "exact" && (r.F1 != 1 || r.Precision != 1 || r.Recall != 1) {
			t.Errorf("exact engine scored F1=%.3f P=%.3f R=%.3f, want all 1", r.F1, r.Precision, r.Recall)
		}
		if r.SizeBytes <= 0 {
			t.Errorf("%s: SizeBytes = %d", r.Engine, r.SizeBytes)
		}
	}
}

func TestRunUnknownName(t *testing.T) {
	if err := Run(io.Discard, "fig99", Quick()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSingle(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "table2", Quick()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output produced")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.NumQueries != 50 || c.Threshold != 0.5 || c.Scale != 1.0 || c.Seed != 42 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestFig15GBKMVDominates(t *testing.T) {
	rows, err := Fig15(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 28 { // 7 profiles × 4 thresholds
		t.Fatalf("got %d rows", len(rows))
	}
	wins := 0
	for _, r := range rows {
		if r.GBKMV >= r.LSHE {
			wins++
		}
	}
	// The paper's claim: GB-KMV above LSH-E across the threshold range.
	// Allow a couple of noisy quick-scale cells.
	if wins < len(rows)-3 {
		t.Errorf("GB-KMV won only %d/%d threshold cells", wins, len(rows))
	}
}

func TestFig16ComparativeClaim(t *testing.T) {
	rows, err := Fig16(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows", len(rows))
	}
	wins := 0
	for _, r := range rows {
		if r.GBKMV >= r.LSHE {
			wins++
		}
	}
	if wins < len(rows)-1 {
		t.Errorf("GB-KMV won only %d/%d skew cells", wins, len(rows))
	}
}

func TestFig17RowsAndTimings(t *testing.T) {
	rows, err := Fig17(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*8 { // 4 datasets × (4 GB-KMV + 4 LSH-E settings)
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvgTime <= 0 {
			t.Errorf("%s/%s %s: non-positive query time", r.Dataset, r.Method, r.Setting)
		}
		if r.F1 < 0 || r.F1 > 1 {
			t.Errorf("%s/%s %s: F1 = %v", r.Dataset, r.Method, r.Setting, r.F1)
		}
	}
}

func TestFig19aGBKMVBeatsLSHE(t *testing.T) {
	rows, err := Fig19a(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	var bestGB, bestLSHE float64
	for _, r := range rows {
		if r.Method == "GB-KMV" && r.F1 > bestGB {
			bestGB = r.F1
		}
		if r.Method == "LSH-E" && r.F1 > bestLSHE {
			bestLSHE = r.F1
		}
	}
	if bestGB <= bestLSHE {
		t.Errorf("uniform data: best GB-KMV F1 %v not above LSH-E %v", bestGB, bestLSHE)
	}
}

func TestFig19bExactMethodsSlower(t *testing.T) {
	rows, err := Fig19b(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no size groups populated")
	}
	for _, r := range rows {
		if r.GBKMVRec < 0 || r.GBKMVRec > 1 {
			t.Errorf("recall = %v", r.GBKMVRec)
		}
	}
	// In the largest size group the exact methods must be slower.
	last := rows[len(rows)-1]
	if last.GBKMV >= last.FreqSet {
		t.Errorf("GB-KMV (%v) not faster than FreqSet (%v) on large records",
			last.GBKMV, last.FreqSet)
	}
}

func TestFig5ModelVarianceShape(t *testing.T) {
	res, err := Fig5(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d datasets", len(res))
	}
	for _, r := range res {
		if len(r.Points) < 2 {
			t.Fatalf("%s: only %d sweep points", r.Dataset, len(r.Points))
		}
		// The model must prefer some buffer over none on these skewed
		// profiles (its argmin r > 0), matching Fig. 5 of the paper.
		if r.BestVarR <= 0 {
			t.Errorf("%s: model argmin r = %d, want positive", r.Dataset, r.BestVarR)
		}
	}
}

func TestBaselinesLineage(t *testing.T) {
	rows, err := Baselines(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 2 datasets × 5 systems
		t.Fatalf("got %d rows", len(rows))
	}
	byMethod := map[string]float64{}
	for _, r := range rows {
		byMethod[r.Method] += r.F1 / 2
	}
	if byMethod["GB-KMV"] <= byMethod["LSH-E"] {
		t.Errorf("GB-KMV mean F1 %v not above LSH-E %v", byMethod["GB-KMV"], byMethod["LSH-E"])
	}
	if byMethod["LSH-E+V"] < byMethod["LSH-E"] {
		t.Errorf("verified LSH-E %v below raw %v", byMethod["LSH-E+V"], byMethod["LSH-E"])
	}
}

func TestAnalysisTheoryAgreement(t *testing.T) {
	rows, err := Analysis(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.K != 256 {
			continue
		}
		// At k=256 the Taylor approximations should agree with Monte-Carlo
		// within a factor of 2 for variances and 5% for expectations.
		if strings.HasPrefix(r.Quantity, "E[") {
			if math.Abs(r.Empirical-r.Theory) > 0.05*math.Abs(r.Theory) {
				t.Errorf("%s k=%d: empirical %v vs theory %v", r.Quantity, r.K, r.Empirical, r.Theory)
			}
		} else if r.Empirical > 2*r.Theory || r.Empirical < r.Theory/2 {
			t.Errorf("%s k=%d: empirical %v vs theory %v", r.Quantity, r.K, r.Empirical, r.Theory)
		}
	}
}

func TestScalingIndexedFaster(t *testing.T) {
	rows, err := Scaling(io.Discard, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Indexed > r.Linear {
			t.Errorf("m=%d: indexed %v slower than linear %v", r.NumRecords, r.Indexed, r.Linear)
		}
	}
}

// fig7to13Exceptions are the (profile, rule) pairs of TestFig7to13Ordering
// that do not hold on all four budgets at HEAD, with the budgets they fail
// at; DESIGN.md "Findings" has the rows. An entry that moves — for
// the better too — fails the test, so the record stays true.
var fig7to13Exceptions = map[string]string{
	// At 2 % (and 5 % on the two most size-skewed profiles) the cost model's
	// buffer takes most of the budget and GB-KMV falls behind its own
	// buffer-less variant, at 2 % behind LSH-E's 16 hashes too.
	"NETFLIX: GB-KMV ≥ G-KMV": "2% 5%",
	"DELIC: GB-KMV ≥ G-KMV":   "2% 5%",
	"ENRON: GB-KMV ≥ G-KMV":   "2%",
	"REUTERS: GB-KMV ≥ G-KMV": "2%",
	"WEBSPAM: GB-KMV ≥ G-KMV": "2%",
	"NETFLIX: GB-KMV > LSH-E": "2%",
	"DELIC: GB-KMV > LSH-E":   "2%",
	"ENRON: GB-KMV > LSH-E":   "2%",
	"REUTERS: GB-KMV > LSH-E": "2%",
	// KMV, charged 8 B a unit against G-KMV's 4, catches up with G-KMV once
	// its equal allocation k is large (20 %), and on WEBSPAM's long records
	// while τ is still small.
	"DELIC: G-KMV > KMV":   "20%",
	"COD: G-KMV > KMV":     "20%",
	"ENRON: G-KMV > KMV":   "5% 20%",
	"REUTERS: G-KMV > KMV": "20%",
	"WEBSPAM: G-KMV > KMV": "2% 5%",
}

// TestFig7to13Ordering pins the paper's headline — at equal space GB-KMV ≥
// G-KMV > KMV, and GB-KMV > LSH-E — on the accuracy-versus-space curves, every
// system built through the registry: every profile at Quick() scale, budgets
// 2, 5, 10 and 20 %, LSH-E at the signature length of the same space. A rule
// is pinned for a profile when it holds on all four budgets.
func TestFig7to13Ordering(t *testing.T) {
	cfg := Quick()
	fracs := []float64{0.02, 0.05, 0.10, 0.20}
	systems := []string{"gbkmv", "gkmv", "kmv", "lshensemble"}
	rules := []struct {
		name   string
		hi, lo int // indexes into systems
		strict bool
	}{
		{"GB-KMV ≥ G-KMV", 0, 1, false},
		{"G-KMV > KMV", 1, 2, true},
		{"GB-KMV > LSH-E", 0, 3, true},
	}
	t.Logf("%-9s %6s  %s", "Dataset", "Space", "F1 (sketch bytes): gbkmv, gkmv, kmv, lshensemble")
	for _, p := range dataset.Profiles() {
		d, err := generate(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wl := newWorkload(d, cfg, cfg.Threshold)
		f1 := make([][]float64, len(fracs))
		for i, frac := range fracs {
			line := ""
			for _, name := range systems {
				opt := cfg.atBudget(frac)
				if name == "lshensemble" {
					opt = cfg.withHashes(lsheHashesAt(d, frac))
				}
				e, err := buildRegistered(name, d, opt)
				if err != nil {
					t.Fatal(err)
				}
				r := wl.run(engineSearcher(e))
				f1[i] = append(f1[i], r.F1)
				line += fmt.Sprintf("  %.3f (%d)", r.F1, e.EngineStats().SizeBytes)
			}
			t.Logf("%-9s %5.0f%% %s", p.Name, frac*100, line)
		}
		for _, rule := range rules {
			var fails []string
			for i, frac := range fracs {
				hi, lo := f1[i][rule.hi], f1[i][rule.lo]
				if hi < lo || (rule.strict && hi == lo) {
					fails = append(fails, fmt.Sprintf("%.0f%%", frac*100))
				}
			}
			key := p.Name + ": " + rule.name
			if got, want := strings.Join(fails, " "), fig7to13Exceptions[key]; got != want {
				t.Errorf("%s fails at budgets [%s], recorded [%s] (fig7to13Exceptions and DESIGN.md \"Findings\")", key, got, want)
			}
		}
	}
}
