package lshforest

import (
	"testing"

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

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 1); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := New(4, 0, 1); err == nil {
		t.Error("maxDepth=0 accepted")
	}
	f, err := New(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumHashes() != 256 {
		t.Errorf("NumHashes = %d, want 256", f.NumHashes())
	}
}

func TestIdenticalRecordAlwaysFound(t *testing.T) {
	f, _ := New(16, 4, 7)
	r := seqRecord(0, 100)
	f.Add(0, f.Sign(r))
	f.Add(1, f.Sign(seqRecord(500, 600)))
	f.Index()
	// An identical query collides in every tree at any depth.
	for b := 1; b <= 16; b *= 2 {
		for depth := 1; depth <= 4; depth++ {
			got := f.Query(f.Sign(r), b, depth)
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
	f, _ := New(8, 8, 7)
	f.Add(0, f.Sign(seqRecord(0, 500)))
	f.Index()
	got := f.Query(f.Sign(seqRecord(10000, 10500)), 8, 8)
	if len(got) != 0 {
		t.Errorf("disjoint record matched at full depth: %v", got)
	}
}

func TestCollisionProbabilityMonotonicity(t *testing.T) {
	// Deeper prefixes → fewer candidates; more trees → more candidates.
	f, _ := New(16, 8, 3)
	base := seqRecord(0, 400)
	// Index 60 records with varying overlap with base.
	for i := 0; i < 60; i++ {
		f.Add(i, f.Sign(seqRecord(i*10, i*10+400)))
	}
	f.Index()
	sig := f.Sign(base)
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
	f, _ := New(32, 8, 11)
	// Record 0: near-duplicate of the query; records 1..40: low overlap.
	q := seqRecord(0, 300)
	f.Add(0, f.Sign(seqRecord(0, 310))) // J ≈ 0.97
	for i := 1; i <= 40; i++ {
		f.Add(i, f.Sign(seqRecord(250+i*37, 550+i*37))) // small or no overlap
	}
	f.Index()
	got := f.Query(f.Sign(q), 32, 4)
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
	f, _ := New(4, 4, 1)
	r := seqRecord(0, 50)
	f.Add(0, f.Sign(r))
	f.Index()
	// Out-of-range (b, r) must not panic and must behave as clamped.
	got := f.Query(f.Sign(r), 100, 100)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("clamped query = %v", got)
	}
	got = f.Query(f.Sign(r), 0, 0)
	if len(got) != 1 {
		t.Errorf("lower-clamped query = %v", got)
	}
}

func TestLenAndSizeUnits(t *testing.T) {
	f, _ := New(8, 4, 1)
	for i := 0; i < 5; i++ {
		f.Add(i, f.Sign(seqRecord(i, i+30)))
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
	f, _ := New(8, 2, 3)
	r := seqRecord(0, 100)
	f.Add(7, f.Sign(r))
	f.Index()
	got := f.Query(f.Sign(r), 8, 1)
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("got %v, want [7] exactly once", got)
	}
}

func BenchmarkQuery(b *testing.B) {
	f, _ := New(32, 8, 1)
	for i := 0; i < 1000; i++ {
		f.Add(i, f.Sign(seqRecord(i*3, i*3+200)))
	}
	f.Index()
	sig := f.Sign(seqRecord(0, 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Query(sig, 32, 4)
	}
}
