package lshforest

import (
	"math"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/minhash"
)

func seqRecord(lo, hi int) dataset.Record {
	elems := make([]hash.Element, 0, hi-lo)
	for i := lo; i < hi; i++ {
		elems = append(elems, hash.Element(i))
	}
	return dataset.NewRecord(elems)
}

// newSigned returns an empty forest and a signer of signatures its length:
// a forest makes no signatures of its own.
func newSigned(l, depth int, seed uint64) (*Forest, *minhash.Generator) {
	f, err := New(l, depth)
	if err != nil {
		panic(err)
	}
	return f, minhash.NewGenerator(f.NumHashes(), seed)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("maxDepth=0 accepted")
	}
	f, err := New(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumHashes() != 256 {
		t.Errorf("NumHashes = %d, want 256", f.NumHashes())
	}
}

func TestIdenticalRecordAlwaysFound(t *testing.T) {
	f, gen := newSigned(16, 4, 7)
	r := seqRecord(0, 100)
	f.Add(0, gen.Sign(r))
	f.Add(1, gen.Sign(seqRecord(500, 600)))
	f.Index()
	// An identical query collides in every tree at any depth.
	for b := 1; b <= 16; b *= 2 {
		for depth := 1; depth <= 4; depth++ {
			got := f.Query(gen.Sign(r), b, depth)
			found := false
			for _, id := range got {
				if id == 0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("b=%d r=%d: identical record not found", b, depth)
			}
		}
	}
}

func TestDisjointRecordRarelyFound(t *testing.T) {
	f, gen := newSigned(8, 8, 7)
	f.Add(0, gen.Sign(seqRecord(0, 500)))
	f.Index()
	got := f.Query(gen.Sign(seqRecord(10000, 10500)), 8, 8)
	if len(got) != 0 {
		t.Errorf("disjoint record matched at full depth: %v", got)
	}
}

func TestCollisionProbabilityMonotonicity(t *testing.T) {
	// Deeper prefixes → fewer candidates; more trees → more candidates.
	f, gen := newSigned(16, 8, 3)
	base := seqRecord(0, 400)
	// Index 60 records with varying overlap with base.
	for i := 0; i < 60; i++ {
		f.Add(i, gen.Sign(seqRecord(i*10, i*10+400)))
	}
	f.Index()
	sig := gen.Sign(base)
	shallow := len(f.Query(sig, 16, 1))
	deep := len(f.Query(sig, 16, 8))
	if deep > shallow {
		t.Errorf("deeper probe returned more candidates: %d > %d", deep, shallow)
	}
	few := len(f.Query(sig, 2, 4))
	many := len(f.Query(sig, 16, 4))
	if few > many {
		t.Errorf("more trees returned fewer candidates: %d > %d", many, few)
	}
}

func TestSimilarFoundDissimilarFiltered(t *testing.T) {
	f, gen := newSigned(32, 8, 11)
	// Record 0: near-duplicate of the query; records 1..40: low overlap.
	q := seqRecord(0, 300)
	f.Add(0, gen.Sign(seqRecord(0, 310))) // J ≈ 0.97
	for i := 1; i <= 40; i++ {
		f.Add(i, gen.Sign(seqRecord(250+i*37, 550+i*37))) // small or no overlap
	}
	f.Index()
	got := f.Query(gen.Sign(q), 32, 4)
	foundNear := false
	for _, id := range got {
		if id == 0 {
			foundNear = true
		}
	}
	if !foundNear {
		t.Error("near-duplicate not retrieved")
	}
	if len(got) > 20 {
		t.Errorf("too many low-similarity candidates: %d", len(got))
	}
}

func TestQueryClampsParameters(t *testing.T) {
	f, gen := newSigned(4, 4, 1)
	r := seqRecord(0, 50)
	f.Add(0, gen.Sign(r))
	f.Index()
	// Out-of-range (b, r) must not panic and must behave as clamped.
	got := f.Query(gen.Sign(r), 100, 100)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("clamped query = %v", got)
	}
	got = f.Query(gen.Sign(r), 0, 0)
	if len(got) != 1 {
		t.Errorf("lower-clamped query = %v", got)
	}
}

func TestLenAndSizeUnits(t *testing.T) {
	f, gen := newSigned(8, 4, 1)
	for i := 0; i < 5; i++ {
		f.Add(i, gen.Sign(seqRecord(i, i+30)))
	}
	f.Index()
	if f.Len() != 5 {
		t.Errorf("Len = %d", f.Len())
	}
	if f.SizeUnits() != 5*32 {
		t.Errorf("SizeUnits = %d, want 160", f.SizeUnits())
	}
}

func TestDuplicateIdsDeduplicated(t *testing.T) {
	f, gen := newSigned(8, 2, 3)
	r := seqRecord(0, 100)
	f.Add(7, gen.Sign(r))
	f.Index()
	got := f.Query(gen.Sign(r), 8, 1)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("got %v, want [7] exactly once", got)
	}
}

func TestOptimalParamsShape(t *testing.T) {
	f, err := New(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Higher thresholds demand longer AND-chains (larger r) or fewer bands:
	// the collision curve must shift right. Check the probe selectivity
	// rises with s*: collisionProb at s=0.2 under params for s*=0.9 must be
	// below that under params for s*=0.2.
	bLow, rLow := f.OptimalParams(0.2)
	bHigh, rHigh := f.OptimalParams(0.9)
	pLow := collisionProb(0.2, bLow, rLow)
	pHigh := collisionProb(0.2, bHigh, rHigh)
	if pHigh > pLow {
		t.Errorf("params for s*=0.9 (b=%d,r=%d) catch more low-sim pairs than for s*=0.2 (b=%d,r=%d)",
			bHigh, rHigh, bLow, rLow)
	}
	// Clamping must not panic.
	f.OptimalParams(-1)
	f.OptimalParams(2)
	f.OptimalParams(math.NaN())
}

func TestCollisionProbBounds(t *testing.T) {
	for _, s := range []float64{0, 0.3, 0.7, 1} {
		for _, b := range []int{1, 8, 32} {
			for _, r := range []int{1, 4, 8} {
				p := collisionProb(s, b, r)
				if p < 0 || p > 1 {
					t.Fatalf("collisionProb(%v,%d,%d) = %v", s, b, r, p)
				}
			}
		}
	}
	if got := collisionProb(1, 16, 4); got != 1 {
		t.Errorf("collisionProb(1) = %v, want 1", got)
	}
	if got := collisionProb(0, 16, 4); got != 0 {
		t.Errorf("collisionProb(0) = %v, want 0", got)
	}
}

func TestIntegrateKnownValues(t *testing.T) {
	// ∫₀¹ x dx = 0.5
	got := integrate(0, 1, func(x float64) float64 { return x })
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("∫x = %v", got)
	}
	// ∫₀¹ x² dx = 1/3 (Simpson is exact for cubics)
	got = integrate(0, 1, func(x float64) float64 { return x * x })
	if math.Abs(got-1.0/3.0) > 1e-9 {
		t.Errorf("∫x² = %v", got)
	}
	if got := integrate(1, 0, func(x float64) float64 { return x }); got != 0 {
		t.Errorf("reversed bounds = %v, want 0", got)
	}
}

func BenchmarkQuery(b *testing.B) {
	f, gen := newSigned(32, 8, 1)
	for i := 0; i < 1000; i++ {
		f.Add(i, gen.Sign(seqRecord(i*3, i*3+200)))
	}
	f.Index()
	sig := gen.Sign(seqRecord(0, 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Query(sig, 32, 4)
	}
}
