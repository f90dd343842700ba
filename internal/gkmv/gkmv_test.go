package gkmv

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/kmv"
	"gbkmv/internal/minhash"
)

const testSeed = 0xBEEF

func seqRecord(lo, hi int) dataset.Record {
	elems := make([]hash.Element, 0, hi-lo)
	for i := lo; i < hi; i++ {
		elems = append(elems, hash.Element(i))
	}
	return dataset.NewRecord(elems)
}

// build is the sketch of a record as a View.
func build(r dataset.Record, tau float64, seed uint64) View {
	keys, complete := BuildHashes(r, tau, seed)
	return MakeView(keys, complete)
}

// buildAll sketches every record of the dataset under a shared threshold.
func buildAll(d *dataset.Dataset, tau float64, seed uint64) []View {
	out := make([]View, len(d.Records))
	for i, r := range d.Records {
		out[i] = build(r, tau, seed)
	}
	return out
}

// containment is Equation 26: D̂∩ / |Q|.
func containment(q, x View, qSize int) float64 {
	return IntersectViews(q, x).DInter / float64(qSize)
}

// fromUnits is the view whose keys stand for the given unit hash values.
func fromUnits(us []float64, complete bool) View {
	keys := make([]uint32, len(us))
	for i, u := range us {
		keys[i] = uint32(u * (1 << 32))
	}
	slices.Sort(keys)
	return MakeView(keys, complete)
}

func TestBuildKeepsExactlyBelowTau(t *testing.T) {
	r := seqRecord(0, 1000)
	tau := 0.3
	s := build(r, tau, testSeed)
	// A key is kept when the share of the unit interval at or under it fits
	// under τ; up to one key's width (2⁻³²) that is "unit hash ≤ τ".
	want := 0
	for _, e := range r {
		if hash.KeyUnit(hash.Key32(e, testSeed)) <= tau {
			want++
		}
	}
	if s.K() != want {
		t.Errorf("K = %d, want %d", s.K(), want)
	}
	for _, x := range s.keys {
		if hash.KeyUnit(x) > tau {
			t.Fatalf("stored key %d (%v) above threshold %v", x, hash.KeyUnit(x), tau)
		}
	}
	if !slices.IsSorted(s.keys) {
		t.Fatal("run is not ascending")
	}
	// τ = 0 keeps nothing; an empty record is then still complete.
	if keys, complete := BuildHashes(r, 0, testSeed); len(keys) != 0 || complete {
		t.Errorf("τ=0 kept %d keys, complete=%v", len(keys), complete)
	}
	if _, complete := BuildHashes(nil, 0, testSeed); !complete {
		t.Error("the empty record is complete under any τ")
	}
}

func TestBuildPanicsOnBadTau(t *testing.T) {
	for _, tau := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build with tau=%v did not panic", tau)
				}
			}()
			BuildHashes(seqRecord(0, 3), tau, testSeed)
		}()
	}
}

func TestBuildCompleteAtTauOne(t *testing.T) {
	s := build(seqRecord(0, 50), 1, testSeed)
	if !s.complete {
		t.Error("sketch with τ=1 should be complete")
	}
	if s.K() != 50 {
		t.Errorf("K = %d, want 50", s.K())
	}
}

func TestBuildExpectedSize(t *testing.T) {
	// E[|L_X|] = τ·|X|; with |X| = 10000 and τ = 0.2, std ≈ 40.
	r := seqRecord(0, 10000)
	s := build(r, 0.2, testSeed)
	if math.Abs(float64(s.K())-2000) > 200 {
		t.Errorf("K = %d, want ~2000", s.K())
	}
}

func TestTheorem2UnionIsValidKMV(t *testing.T) {
	// The k-th smallest value of L_X ∪ L_Y must equal the k-th smallest
	// value of h(X ∪ Y) where k = |L_X ∪ L_Y| (Theorem 2).
	x := seqRecord(0, 500)
	y := seqRecord(250, 800)
	tau := 0.25
	sx := build(x, tau, testSeed)
	sy := build(y, tau, testSeed)
	k, _, uk := unionStats(sx.keys, sy.keys)

	union := dataset.NewRecord(append(append([]hash.Element{}, x...), y...))
	all := make([]uint32, len(union))
	for i, e := range union {
		all[i] = hash.Key32(e, testSeed)
	}
	slices.Sort(all)
	if k == 0 {
		t.Fatal("empty union sketch; lower tau too aggressive for test")
	}
	if got := all[k-1]; got != uk {
		t.Errorf("U(k) = %v, but k-th smallest of h(X∪Y) = %v", uk, got)
	}
}

func TestIntersectPaperExample4(t *testing.T) {
	// Fig. 3 / Example 4: τ = 0.5,
	// L_Q = {0.10, 0.24, 0.33}, L_X1 = {0.24, 0.33, 0.47}.
	// k = 4, U(k) = 0.47, K∩ = 2, D̂∩ = 2/4 · 3/0.47 ≈ 3.19, Ĉ ≈ 0.53.
	lq := fromUnits([]float64{0.10, 0.24, 0.33}, false)
	lx := fromUnits([]float64{0.24, 0.33, 0.47}, false)
	res := IntersectViews(lq, lx)
	if res.K != 4 {
		t.Fatalf("k = %d, want 4", res.K)
	}
	if math.Abs(res.UK-0.47) > 1e-9 { // a key stands for its bucket's upper edge
		t.Fatalf("U(k) = %v, want 0.47", res.UK)
	}
	if res.KInter != 2 {
		t.Fatalf("K∩ = %d, want 2", res.KInter)
	}
	want := 2.0 / 4.0 * 3.0 / 0.47
	if math.Abs(res.DInter-want) > 1e-8 {
		t.Errorf("D̂∩ = %v, want %v", res.DInter, want)
	}
	if got := res.DInter / 6; math.Abs(got-0.53) > 0.01 {
		t.Errorf("containment = %v, want ≈0.53", got)
	}
}

func TestIntersectExactWhenComplete(t *testing.T) {
	a := build(seqRecord(0, 30), 1, testSeed)
	b := build(seqRecord(20, 50), 1, testSeed)
	res := IntersectViews(a, b)
	if !res.Exact {
		t.Fatal("complete sketches should give exact intersection")
	}
	if res.DInter != 10 {
		t.Errorf("D̂∩ = %v, want exactly 10", res.DInter)
	}
	if res.DUnion != 50 {
		t.Errorf("D̂∪ = %v, want exactly 50", res.DUnion)
	}
}

func TestUnionStatsProperty(t *testing.T) {
	// Runs are multisets (two elements of one record may share a key): the
	// union counts each key max(in a, in b) times, the intersection min.
	f := func(xs, ys []uint8) bool {
		toRun := func(zs []uint8) []uint32 {
			out := make([]uint32, len(zs))
			for i, z := range zs {
				out[i] = uint32(z) << 24
			}
			slices.Sort(out)
			return out
		}
		a, b := toRun(xs), toRun(ys)
		k, kInter, top := unionStats(a, b)
		wantK, wantInter, wantTop := multisetStats(a, b)
		pk, pInter, pTop := plainUnionStats(a, b)
		return k == wantK && kInter == wantInter && top == wantTop &&
			k == pk && kInter == pInter && top == pTop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntersectStatistical(t *testing.T) {
	// |Q∩X| = 1000 out of |Q∪X| = 5000; τ = 0.2 stores ~1000 values total,
	// k ≈ 1000 → tight estimate.
	q := seqRecord(0, 2000)
	x := seqRecord(1000, 4000) // wait: overlap 1000
	sq := build(q, 0.2, testSeed)
	sx := build(x, 0.2, testSeed)
	res := IntersectViews(sq, sx)
	if math.Abs(res.DInter-1000)/1000 > 0.25 {
		t.Errorf("D̂∩ = %v, want ~1000", res.DInter)
	}
}

func TestGKMVBeatsKMVAtEqualBudget(t *testing.T) {
	// Theorem 3's consequence: with the same budget, G-KMV's effective k is
	// larger so its containment error is smaller. Average absolute error
	// over several pairs and seeds.
	type pair struct{ q, x dataset.Record }
	pairs := []pair{
		{seqRecord(0, 1000), seqRecord(500, 2500)},
		{seqRecord(0, 800), seqRecord(200, 3000)},
		{seqRecord(0, 1500), seqRecord(750, 1750)},
	}
	const budgetPerRecord = 64
	var errKMV, errGKMV float64
	trials := 0
	for _, p := range pairs {
		truth := p.q.Containment(p.x)
		for seed := uint64(1); seed <= 10; seed++ {
			kq := kmv.Build(p.q, budgetPerRecord, seed)
			kx := kmv.Build(p.x, budgetPerRecord, seed)
			errKMV += math.Abs(kmv.ContainmentEstimate(kq, kx, len(p.q)) - truth)

			// G-KMV with the same *total* storage: τ chosen so that
			// τ(|Q|+|X|) = 2·budgetPerRecord.
			tau := 2.0 * budgetPerRecord / float64(len(p.q)+len(p.x))
			gq := build(p.q, tau, seed)
			gx := build(p.x, tau, seed)
			errGKMV += math.Abs(containment(gq, gx, len(p.q)) - truth)
			trials++
		}
	}
	errKMV /= float64(trials)
	errGKMV /= float64(trials)
	if errGKMV >= errKMV {
		t.Errorf("G-KMV error %v not better than KMV %v at equal budget", errGKMV, errKMV)
	}
}

func TestThresholdForBudgetExactFit(t *testing.T) {
	// The threshold for a budget is the budget-th smallest key of the
	// collection, handed around as τ = KeyUnit(cut): sketching every record
	// under that τ stores exactly the keys ≤ cut — the budget, plus whatever
	// ties the cut (an element in several records is one key in each).
	cfg := dataset.SyntheticConfig{
		NumRecords: 200, Universe: 5000,
		AlphaFreq: 1.1, AlphaSize: 2,
		MinSize: 10, MaxSize: 100,
	}
	d, err := dataset.Synthetic(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var all []uint32
	for _, r := range d.Records {
		for _, e := range r {
			all = append(all, hash.Key32(e, testSeed))
		}
	}
	slices.Sort(all)
	budget := len(all) / 10
	cut := all[budget-1]
	want, _ := slices.BinarySearch(all, cut+1) // keys ≤ cut
	stored := 0
	for _, v := range buildAll(d, hash.KeyUnit(cut), testSeed) {
		stored += v.K()
	}
	if stored != want || stored < budget || stored > budget+budget/20 {
		t.Errorf("stored %d keys for budget %d, %d keys are ≤ the cut", stored, budget, want)
	}
}

func TestBuildAll(t *testing.T) {
	// Every view under a shared threshold: ascending, under the cut, complete
	// exactly when it kept the whole record.
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 100, Universe: 2000,
		AlphaFreq: 1.1, AlphaSize: 2,
		MinSize: 1, MaxSize: 60,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 0.5
	cut, _ := hash.UnitKey(tau)
	for i, v := range buildAll(d, tau, testSeed) {
		keys := v.keys
		if !slices.IsSorted(keys) || (len(keys) > 0 && keys[len(keys)-1] > cut) {
			t.Fatalf("record %d: run %v is not an ascending run under %d", i, keys, cut)
		}
		if v.complete != (v.K() == len(d.Records[i])) {
			t.Errorf("record %d: complete = %v with %d of %d elements kept", i, v.complete, v.K(), len(d.Records[i]))
		}
	}
}

func BenchmarkBuildTau01(b *testing.B) {
	r := seqRecord(0, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildHashes(r, 0.1, testSeed)
	}
}

func BenchmarkIntersect(b *testing.B) {
	x := build(seqRecord(0, 5000), 0.1, testSeed)
	y := build(seqRecord(2500, 7500), 0.1, testSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectViews(x, y)
	}
}

// TestDistinctEstimate: a G-KMV sketch is a valid KMV sketch of its record
// with k = |L_X| (Theorem 2 with Y = ∅), so the union estimate (k−1)/U(k) of
// a view with itself is the Beyer et al. estimate of the record's distinct
// count — exact when the sketch is complete.
func TestDistinctEstimate(t *testing.T) {
	distinct := func(v View) float64 { return IntersectViews(v, v).DUnion }
	s := build(seqRecord(0, 40), 1, testSeed)
	if got := distinct(s); got != 40 {
		t.Errorf("complete sketch estimates %v distinct elements, want 40", got)
	}
	// Thresholded sketch: statistical accuracy.
	const n = 20000
	if got := distinct(build(seqRecord(0, n), 0.05, testSeed)); math.Abs(got-n)/n > 0.2 {
		t.Errorf("thresholded sketch estimates %v distinct elements, want ~%d", got, n)
	}
	// Degenerate: empty and single-key sketches do not divide by zero.
	for _, keys := range [][]uint32{nil, {0}} {
		if got := distinct(MakeView(keys, false)); got != 0 {
			t.Errorf("%d-key sketch estimates %v, want 0 (the estimator needs k ≥ 2)", len(keys), got)
		}
	}
}

func TestTheorem5GKMVBeatsMinHashVariance(t *testing.T) {
	// Theorem 5: at the same *total* sketch size over a power-law dataset,
	// the G-KMV containment estimator has smaller average variance than the
	// MinHash-LSH estimator (Equation 14). The theorem is an average over
	// the size distribution — G-KMV adapts storage to record size while
	// MinHash spends k' values on every record — so we measure the mean
	// squared error over pairs drawn from a size-skewed dataset.
	cfg := dataset.SyntheticConfig{
		NumRecords: 60, Universe: 30000,
		AlphaFreq: 0.8, AlphaSize: 2.0,
		MinSize: 50, MaxSize: 3000,
	}
	d, err := dataset.Synthetic(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	n := d.TotalElements()
	m := d.NumRecords()
	const kPrime = 48 // MinHash hashes per record
	budget := kPrime * m
	tau := float64(budget) / float64(n)
	if tau > 1 {
		t.Fatalf("budget too large for the test dataset (tau=%v)", tau)
	}

	queries := d.SampleQueries(8, 5)
	const trials = 12
	var mseG, mseM float64
	var cnt int
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial*101 + 3)
		gs := buildAll(d, tau, seed)
		gen := minhash.NewGenerator(kPrime, seed)
		sigs := make([]minhash.Signature, m)
		for i, r := range d.Records {
			sigs[i] = gen.Sign(r)
		}
		for _, q := range queries {
			gq := build(q, tau, seed)
			sq := gen.Sign(q)
			for i, x := range d.Records {
				truth := q.Containment(x)
				eg := containment(gq, gs[i], len(q))
				em := minhash.EstimateContainment(sq, sigs[i], len(q), len(x))
				mseG += (eg - truth) * (eg - truth)
				mseM += (em - truth) * (em - truth)
				cnt++
			}
		}
	}
	mseG /= float64(cnt)
	mseM /= float64(cnt)
	if mseG >= mseM {
		t.Errorf("Theorem 5 violated empirically: MSE[G-KMV]=%v >= MSE[MinHash]=%v", mseG, mseM)
	}
}

// BenchmarkUnionStats is the merge on the run lengths a search meets (10–40
// keys a side, a third shared), branch-free against the plain three-way
// merge it replaced; ns/op is per pair.
func BenchmarkUnionStats(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const pairs = 4096
	as, bs := make([][]uint32, pairs), make([][]uint32, pairs)
	for p := range as {
		shared := make([]uint32, 3+rng.Intn(12))
		for i := range shared {
			shared[i] = rng.Uint32()
		}
		side := func() []uint32 {
			run := slices.Clone(shared)
			for n := 7 + rng.Intn(20); n > 0; n-- {
				run = append(run, rng.Uint32())
			}
			slices.Sort(run)
			return run
		}
		as[p], bs[p] = side(), side()
	}
	for name, merge := range map[string]func(a, b []uint32) (int, int, uint32){
		"branchfree": unionStats,
		"plain":      plainUnionStats,
	} {
		b.Run(name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				_, kInter, _ := merge(as[i%pairs], bs[i%pairs])
				sink += kInter
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
