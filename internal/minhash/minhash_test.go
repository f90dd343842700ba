package minhash

import (
	"math"
	"testing"
	"testing/quick"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

func seqRecord(lo, hi int) dataset.Record {
	elems := make([]hash.Element, 0, hi-lo)
	for i := lo; i < hi; i++ {
		elems = append(elems, hash.Element(i))
	}
	return dataset.NewRecord(elems)
}

func TestSignLengthAndDeterminism(t *testing.T) {
	g := NewGenerator(64, 1)
	r := seqRecord(0, 100)
	a := g.Sign(r)
	b := g.Sign(r)
	if len(a) != 64 {
		t.Fatalf("signature length = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("signature not deterministic")
		}
	}
}

func TestSignEmptyRecord(t *testing.T) {
	g := NewGenerator(8, 1)
	sig := g.Sign(dataset.Record{})
	for _, v := range sig {
		if v != math.MaxUint64 {
			t.Fatal("empty record should sign as MaxUint64")
		}
	}
}

func TestIdenticalRecordsFullCollision(t *testing.T) {
	g := NewGenerator(32, 5)
	r := seqRecord(10, 60)
	if got := Jaccard(g.Sign(r), g.Sign(r)); got != 1 {
		t.Errorf("J(X,X) estimate = %v, want 1", got)
	}
}

func TestDisjointRecordsNoCollision(t *testing.T) {
	g := NewGenerator(64, 5)
	a := g.Sign(seqRecord(0, 500))
	b := g.Sign(seqRecord(1000, 1500))
	if got := Jaccard(a, b); got > 0.05 {
		t.Errorf("disjoint records estimate = %v, want ~0", got)
	}
}

func TestJaccardEstimateStatistical(t *testing.T) {
	// J = 1/3 as in the hash-package test but via signatures.
	g := NewGenerator(512, 9)
	a := g.Sign(seqRecord(0, 100))
	b := g.Sign(seqRecord(50, 150))
	got := Jaccard(a, b)
	if math.Abs(got-1.0/3.0) > 0.09 {
		t.Errorf("Jaccard estimate = %v, want ~0.333", got)
	}
}

func TestJaccardEmptySignature(t *testing.T) {
	if got := Jaccard(Signature{}, Signature{}); got != 0 {
		t.Errorf("empty-signature Jaccard = %v", got)
	}
}

// TestJaccardVariance: over independent hash families the collision-fraction
// estimator is unbiased with Var[ŝ] = s(1−s)/k (Equations 6 and 7).
func TestJaccardVariance(t *testing.T) {
	x, y := seqRecord(0, 100), seqRecord(50, 150) // J = 50/150
	const (
		s      = 1.0 / 3
		k      = 64
		trials = 400
	)
	var sum, sum2 float64
	for i := 0; i < trials; i++ {
		g := NewGenerator(k, uint64(i)+1)
		est := Jaccard(g.Sign(x), g.Sign(y))
		sum += est
		sum2 += est * est
	}
	mean := sum / trials
	variance := (sum2 - trials*mean*mean) / (trials - 1)
	if math.Abs(mean-s) > 0.01 {
		t.Errorf("mean estimate %v, want %v", mean, s)
	}
	if want := s * (1 - s) / k; math.Abs(variance-want)/want > 0.3 {
		t.Errorf("variance %v, Equation 7 gives %v", variance, want)
	}
}

func TestTransformRoundTrip(t *testing.T) {
	// Equation 12 back and forth must be inverse operations.
	f := func(tRaw, xRaw, qRaw uint8) bool {
		tr := float64(tRaw%100) / 100
		x := int(xRaw)%500 + 1
		q := int(qRaw)%500 + 1
		s := JaccardFromContainment(tr, x, q)
		back := ContainmentFromJaccard(s, x, q)
		return math.Abs(back-tr) < 1e-9 || s == 1 // clamped case may not invert
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransformPaperIntroExample(t *testing.T) {
	// Intro: C(Q,X)=1.0 with q=2, x=9 ⇒ J(Q,X)=2/9.
	s := JaccardFromContainment(1.0, 9, 2)
	if math.Abs(s-2.0/9.0) > 1e-12 {
		t.Errorf("s = %v, want 2/9", s)
	}
	// And back.
	if got := ContainmentFromJaccard(2.0/9.0, 9, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("t = %v, want 1", got)
	}
}

func TestTransformDegenerateDenominator(t *testing.T) {
	// t close to x/q+1 would blow up the denominator; we clamp to 1.
	if got := JaccardFromContainment(1.0, 1, 1000); got != 1 {
		t.Errorf("clamped s = %v, want 1", got)
	}
	if got := JaccardFromContainment(0.5, 10, 0); got != 0 {
		t.Errorf("q=0 s = %v, want 0", got)
	}
	if got := ContainmentFromJaccard(0.5, 10, 0); got != 0 {
		t.Errorf("q=0 t = %v, want 0", got)
	}
}

func TestEstimateContainmentStatistical(t *testing.T) {
	// C(Q, X) = 0.8: |Q|=500, |Q∩X|=400, |X|=2000.
	q := seqRecord(0, 500)
	x := seqRecord(100, 2100)
	g := NewGenerator(512, 21)
	got := EstimateContainment(g.Sign(q), g.Sign(x), len(q), len(x))
	if math.Abs(got-0.8) > 0.15 {
		t.Errorf("containment estimate = %v, want ~0.8", got)
	}
}

func TestUpperBoundEstimatorOverestimates(t *testing.T) {
	// Equation 15 with u > x must systematically exceed the Equation 14
	// estimate — the source of LSH-E's false positives.
	q := seqRecord(0, 500)
	x := seqRecord(100, 2100)
	g := NewGenerator(256, 3)
	sq, sx := g.Sign(q), g.Sign(x)
	exact := EstimateContainment(sq, sx, len(q), len(x))
	ub := EstimateContainmentUpperBound(sq, sx, len(q), 4*len(x))
	if ub <= exact {
		t.Errorf("upper-bound estimate %v not above exact-size estimate %v", ub, exact)
	}
}

func TestExpectationMinHashNearlyUnbiased(t *testing.T) {
	// Equation 18: bias term vanishes as k grows.
	tTrue, s := 0.6, 0.3
	small := ExpectationMinHash(tTrue, s, 16)
	large := ExpectationMinHash(tTrue, s, 4096)
	if math.Abs(large-tTrue) > math.Abs(small-tTrue) {
		t.Error("bias should shrink with k")
	}
	if math.Abs(large-tTrue) > 1e-3 {
		t.Errorf("E[t̂] at k=4096 = %v, want ≈ %v", large, tTrue)
	}
}

func TestVarianceLSHEExceedsMinHash(t *testing.T) {
	// Section III-B: Var[t̂'] = ((u+q)/(x+q))² Var[t̂] > Var[t̂] when u > x.
	dInter, s := 200.0, 0.25
	q, k, x := 400, 256, 800
	vm := VarianceMinHash(dInter, s, q, k)
	for _, u := range []int{1600, 3200, 6400} {
		vl := VarianceLSHE(dInter, s, q, k, u, x)
		if vl <= vm {
			t.Errorf("u=%d: LSH-E variance %v not above MinHash %v", u, vl, vm)
		}
	}
}

func TestVarianceMinHashDegenerate(t *testing.T) {
	if !math.IsInf(VarianceMinHash(10, 0, 100, 64), 1) {
		t.Error("s=0 should be +Inf")
	}
	if !math.IsInf(VarianceMinHash(10, 0.5, 0, 64), 1) {
		t.Error("q=0 should be +Inf")
	}
}

func TestVarianceMinHashDecreasesWithK(t *testing.T) {
	prev := math.Inf(1)
	for k := 16; k <= 4096; k *= 2 {
		v := VarianceMinHash(100, 0.3, 500, k)
		if v >= prev {
			t.Fatalf("variance not decreasing at k=%d", k)
		}
		prev = v
	}
}

func TestEmpiricalContainmentVarianceTracksEq19(t *testing.T) {
	// Estimate containment with many independent generators and compare the
	// empirical variance against Equation 19.
	q := seqRecord(0, 400)
	x := seqRecord(200, 1200)
	dInter := float64(q.IntersectSize(x))
	s := q.Jaccard(x)
	const k, trials = 128, 60
	var sum, sum2 float64
	for i := 0; i < trials; i++ {
		g := NewGenerator(k, uint64(1000+i))
		est := EstimateContainment(g.Sign(q), g.Sign(x), len(q), len(x))
		sum += est
		sum2 += est * est
	}
	mean := sum / trials
	emp := sum2/trials - mean*mean
	want := VarianceMinHash(dInter, s, len(q), k)
	if emp > 3*want || emp < want/3 {
		t.Errorf("empirical variance %v vs Eq.19 %v", emp, want)
	}
}

func BenchmarkSign256(b *testing.B) {
	g := NewGenerator(256, 1)
	r := seqRecord(0, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Sign(r)
	}
}

func BenchmarkJaccard256(b *testing.B) {
	g := NewGenerator(256, 1)
	x := g.Sign(seqRecord(0, 200))
	y := g.Sign(seqRecord(100, 300))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(x, y)
	}
}
