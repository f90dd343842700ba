package kmv

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

const testSeed = 0xC0FFEE

func seqRecord(lo, hi int) dataset.Record {
	elems := make([]hash.Element, 0, hi-lo)
	for i := lo; i < hi; i++ {
		elems = append(elems, hash.Element(i))
	}
	return dataset.NewRecord(elems)
}

// fromHashes builds a sketch directly from hash values (test helper for
// reproducing the paper's worked examples).
func fromHashes(hs []float64, capacity int, exact bool) *Sketch {
	s := make([]float64, len(hs))
	copy(s, hs)
	sort.Float64s(s)
	return &Sketch{hashes: s, capacity: capacity, exact: exact}
}

func TestBuildSortedAndTruncated(t *testing.T) {
	r := seqRecord(0, 100)
	s := Build(r, 10, testSeed)
	if s.K() != 10 {
		t.Fatalf("K = %d, want 10", s.K())
	}
	if s.exact {
		t.Error("sketch of 100 elements with k=10 should not be exact")
	}
	hs := s.hashes
	for i := 1; i < len(hs); i++ {
		if hs[i] <= hs[i-1] {
			t.Fatal("hashes not strictly ascending")
		}
	}
}

func TestBuildSmallRecordExact(t *testing.T) {
	r := seqRecord(0, 5)
	s := Build(r, 10, testSeed)
	if !s.exact {
		t.Error("sketch should be exact when |X| ≤ k")
	}
	if s.K() != 5 {
		t.Errorf("K = %d, want 5", s.K())
	}
	if got := distinct(s); got != 5 {
		t.Errorf("DistinctEstimate = %v, want exactly 5", got)
	}
}

func TestBuildPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build with k=0 did not panic")
		}
	}()
	Build(seqRecord(0, 3), 0, testSeed)
}

func TestBuildKeepsSmallestHashes(t *testing.T) {
	r := seqRecord(0, 200)
	s := Build(r, 20, testSeed)
	all := make([]float64, len(r))
	for i, e := range r {
		all[i] = hash.UnitHash(e, testSeed)
	}
	sort.Float64s(all)
	for i := 0; i < 20; i++ {
		if s.hashes[i] != all[i] {
			t.Fatalf("sketch[%d] = %v, want %v", i, s.hashes[i], all[i])
		}
	}
}

func TestDistinctEstimateAccuracy(t *testing.T) {
	// Relative error of (k-1)/U(k) is ~1/sqrt(k-2); with k=256 expect ~6%,
	// test at 4 sigma = 25%.
	const n = 20000
	r := seqRecord(0, n)
	s := Build(r, 256, testSeed)
	got := distinct(s)
	if math.Abs(got-n)/n > 0.25 {
		t.Errorf("DistinctEstimate = %v, want ~%d", got, n)
	}
}

func TestDistinctEstimateUnbiasedAcrossSeeds(t *testing.T) {
	// Average the estimator over many independent hash functions; the mean
	// must approach the truth much more tightly than a single estimate.
	const n = 5000
	r := seqRecord(0, n)
	sum := 0.0
	const trials = 60
	for i := 0; i < trials; i++ {
		sum += distinct(Build(r, 64, uint64(i)))
	}
	mean := sum / trials
	if math.Abs(mean-n)/n > 0.05 {
		t.Errorf("mean estimate %v deviates from %d by more than 5%%", mean, n)
	}
}

func TestUnionEquation8(t *testing.T) {
	a := Build(seqRecord(0, 1000), 30, testSeed)
	b := Build(seqRecord(500, 1500), 50, testSeed)
	u := Union(a, b)
	if u.K() != 30 {
		t.Errorf("union sketch size = %d, want min(30,50)=30", u.K())
	}
	// Union sketch must be the 30 smallest distinct hashes of the merged
	// signatures.
	merged := mergeDistinct(a.hashes, b.hashes)
	for i := 0; i < 30; i++ {
		if u.hashes[i] != merged[i] {
			t.Fatalf("union sketch[%d] mismatch", i)
		}
	}
}

func TestUnionExactWhenBothExact(t *testing.T) {
	a := Build(seqRecord(0, 5), 10, testSeed)
	b := Build(seqRecord(3, 8), 10, testSeed)
	u := Union(a, b)
	if !u.exact {
		t.Error("union of exact sketches should be exact")
	}
	if u.K() != 8 { // |{0..7}|
		t.Errorf("union K = %d, want 8", u.K())
	}
}

func TestMergeDistinctProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := make([]float64, 0, len(xs))
		b := make([]float64, 0, len(ys))
		set := map[float64]bool{}
		for _, x := range xs {
			a = append(a, float64(x))
		}
		for _, y := range ys {
			b = append(b, float64(y))
		}
		sort.Float64s(a)
		sort.Float64s(b)
		// mergeDistinct expects distinct inputs; dedup first.
		a = dedup(a)
		b = dedup(b)
		for _, x := range a {
			set[x] = true
		}
		for _, y := range b {
			set[y] = true
		}
		m := mergeDistinct(a, b)
		if len(m) != len(set) {
			return false
		}
		for i := 1; i < len(m); i++ {
			if m[i] <= m[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func dedup(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func TestIntersectPaperExample2(t *testing.T) {
	// Example 2: L_Q = {0.10, 0.24, 0.33, 0.56}, L_X1 = {0.24, 0.33, 0.47},
	// k = min(4, 3) = 3, union prefix = {0.10, 0.24, 0.33}, U(k) = 0.33,
	// K∩ = 2, D̂∩ = 2/3 · 2/0.33 ≈ 4.04.
	lq := fromHashes([]float64{0.10, 0.24, 0.33, 0.56}, 4, false)
	lx := fromHashes([]float64{0.24, 0.33, 0.47}, 3, false)
	res := Intersect(lq, lx)
	if res.K != 3 {
		t.Fatalf("K = %d, want 3", res.K)
	}
	if res.UK != 0.33 {
		t.Fatalf("U(k) = %v, want 0.33", res.UK)
	}
	if res.KInter != 2 {
		t.Fatalf("K∩ = %d, want 2", res.KInter)
	}
	want := 2.0 / 3.0 * 2.0 / 0.33
	if math.Abs(res.DInter-want) > 1e-9 {
		t.Errorf("D̂∩ = %v, want %v", res.DInter, want)
	}
	// Containment with |Q| = 6: the paper reports 0.67.
	if got := res.DInter / 6; math.Abs(got-0.6734) > 1e-3 {
		t.Errorf("containment = %v, want ≈0.67", got)
	}
}

func TestIntersectExactSketches(t *testing.T) {
	a := Build(seqRecord(0, 8), 20, testSeed)
	b := Build(seqRecord(4, 12), 20, testSeed)
	res := Intersect(a, b)
	if !res.ExactAll {
		t.Fatal("intersection of exact sketches should be exact")
	}
	if res.DInter != 4 {
		t.Errorf("D̂∩ = %v, want exactly 4", res.DInter)
	}
	if res.DUnion != 12 {
		t.Errorf("D̂∪ = %v, want exactly 12", res.DUnion)
	}
}

func TestIntersectEmpty(t *testing.T) {
	a := Build(dataset.Record{}, 5, testSeed)
	b := Build(seqRecord(0, 10), 5, testSeed)
	res := Intersect(a, b)
	if res.DInter != 0 {
		t.Errorf("D̂∩ with empty record = %v, want 0", res.DInter)
	}
}

func TestIntersectionEstimateStatistical(t *testing.T) {
	// |A| = |B| = 4000, |A∩B| = 2000. k=512 → std of D̂∩ is a few percent.
	a := seqRecord(0, 4000)
	b := seqRecord(2000, 6000)
	sa := Build(a, 512, testSeed)
	sb := Build(b, 512, testSeed)
	res := Intersect(sa, sb)
	if math.Abs(res.DInter-2000)/2000 > 0.3 {
		t.Errorf("D̂∩ = %v, want ~2000", res.DInter)
	}
	if math.Abs(res.DUnion-6000)/6000 > 0.2 {
		t.Errorf("D̂∪ = %v, want ~6000", res.DUnion)
	}
}

func TestContainmentEstimateStatistical(t *testing.T) {
	// C(Q, X) = 0.5 with |Q| = 1000.
	q := seqRecord(0, 1000)
	x := seqRecord(500, 5000)
	sq := Build(q, 400, testSeed)
	sx := Build(x, 400, testSeed)
	got := ContainmentEstimate(sq, sx, len(q))
	if math.Abs(got-0.5) > 0.2 {
		t.Errorf("containment = %v, want ~0.5", got)
	}
}

func TestContainmentEstimateZeroQuery(t *testing.T) {
	s := Build(seqRecord(0, 10), 4, testSeed)
	if got := ContainmentEstimate(s, s, 0); got != 0 {
		t.Errorf("containment with qSize=0 = %v", got)
	}
}

func TestVarianceFormula(t *testing.T) {
	// Equation 11 at D∩=100, D∪=1000, k=64:
	// 100·(64·1000 − 4096 − 1000 + 64 + 100)/(64·62).
	want := 100.0 * (64.0*1000 - 4096 - 1000 + 64 + 100) / (64.0 * 62.0)
	if got := Variance(100, 1000, 64); math.Abs(got-want) > 1e-9 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if !math.IsInf(Variance(10, 100, 2), 1) {
		t.Error("Variance with k ≤ 2 should be +Inf")
	}
}

func TestVarianceDecreasesWithK(t *testing.T) {
	// Lemma 2: larger k gives smaller variance.
	prev := math.Inf(1)
	for k := 4; k <= 1024; k *= 2 {
		v := Variance(500, 5000, k)
		if v >= prev {
			t.Fatalf("variance not decreasing at k=%d: %v ≥ %v", k, v, prev)
		}
		prev = v
	}
}

func TestEmpiricalVarianceMatchesEq11(t *testing.T) {
	// Run the estimator with many independent hash functions and compare
	// the empirical variance to Equation 11.
	dInter, only := 300, 700
	a := seqRecord(0, dInter+only)         // |A| = 1000
	b := seqRecord(only, only+dInter+only) // overlap = dInter
	const k, trials = 128, 80
	var sum, sum2 float64
	for i := 0; i < trials; i++ {
		res := Intersect(Build(a, k, uint64(i*7+1)), Build(b, k, uint64(i*7+1)))
		sum += res.DInter
		sum2 += res.DInter * res.DInter
	}
	mean := sum / trials
	emp := sum2/trials - mean*mean
	want := Variance(float64(dInter), float64(2*only+dInter), k)
	// Loose factor-of-2.5 agreement: the empirical variance over 80 trials
	// has high sampling noise.
	if emp > 2.5*want || emp < want/2.5 {
		t.Errorf("empirical variance %v vs Eq.11 %v", emp, want)
	}
	if math.Abs(mean-float64(dInter))/float64(dInter) > 0.1 {
		t.Errorf("mean estimate %v, want ~%d", mean, dInter)
	}
}

func TestEqualAllocation(t *testing.T) {
	if got := EqualAllocation(1000, 10); got != 100 {
		t.Errorf("EqualAllocation = %d, want 100", got)
	}
	if got := EqualAllocation(5, 10); got != 1 {
		t.Errorf("EqualAllocation under-budget = %d, want 1 (floor)", got)
	}
	if got := EqualAllocation(100, 0); got != 0 {
		t.Errorf("EqualAllocation m=0 = %d, want 0", got)
	}
}

func TestTheorem1EqualBeatsSkewedAllocation(t *testing.T) {
	// With a fixed budget, equal signature sizes should beat a skewed
	// allocation on average estimation error, because Eq. 8 truncates to the
	// smaller k. We compare mean absolute containment error over random
	// queries.
	rng := rand.New(rand.NewSource(3))
	const m = 40
	records := make([]dataset.Record, m)
	for i := range records {
		lo := rng.Intn(2000)
		records[i] = seqRecord(lo, lo+1500)
	}
	q := records[0]
	budget := 40 * m // avg k = 40
	evalAlloc := func(ks []int) float64 {
		sq := Build(q, ks[0], testSeed)
		errSum := 0.0
		for i, r := range records {
			sr := Build(r, ks[i], testSeed)
			est := ContainmentEstimate(sq, sr, len(q))
			truth := q.Containment(r)
			errSum += math.Abs(est - truth)
		}
		return errSum / m
	}
	equal := make([]int, m)
	for i := range equal {
		equal[i] = budget / m
	}
	skewed := make([]int, m)
	// Half the records get 70, the other half 10 (same total).
	for i := range skewed {
		if i%2 == 0 {
			skewed[i] = 70
		} else {
			skewed[i] = 10
		}
	}
	if e, s := evalAlloc(equal), evalAlloc(skewed); e > s {
		t.Errorf("equal allocation error %v worse than skewed %v", e, s)
	}
}

func BenchmarkBuildK256(b *testing.B) {
	r := seqRecord(0, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(r, 256, testSeed)
	}
}

func BenchmarkIntersect(b *testing.B) {
	x := Build(seqRecord(0, 5000), 256, testSeed)
	y := Build(seqRecord(2500, 7500), 256, testSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intersect(x, y)
	}
}

// distinct is the Beyer et al. estimate D̂ = (k−1)/U(k) of a sketched
// record's distinct count — exact for an exact sketch — read off the union
// estimate (Equation 9) of the sketch with itself.
func distinct(s *Sketch) float64 { return Intersect(s, s).DUnion }

// unionAll folds Union over the sketches: the ⊕ of Beyer et al. extended to
// n-ary unions.
func unionAll(sketches []*Sketch) *Sketch {
	u := sketches[0]
	for _, s := range sketches[1:] {
		u = Union(u, s)
	}
	return u
}

func TestUnionAll(t *testing.T) {
	// Union of three overlapping ranges covering [0, 3000).
	sketches := []*Sketch{
		Build(seqRecord(0, 1200), 64, testSeed),
		Build(seqRecord(1000, 2200), 64, testSeed),
		Build(seqRecord(2000, 3000), 64, testSeed),
	}
	u := unionAll(sketches)
	got := distinct(u)
	if math.Abs(got-3000)/3000 > 0.4 {
		t.Errorf("n-ary union distinct estimate = %v, want ~3000", got)
	}
}

func TestUnionAllExactSmall(t *testing.T) {
	sketches := []*Sketch{
		Build(seqRecord(0, 5), 32, testSeed),
		Build(seqRecord(3, 9), 32, testSeed),
		Build(seqRecord(7, 12), 32, testSeed),
	}
	u := unionAll(sketches)
	if !u.exact {
		t.Fatal("union of exact sketches should stay exact")
	}
	if got := distinct(u); got != 12 {
		t.Errorf("exact union estimate = %v, want 12", got)
	}
}
