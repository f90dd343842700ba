package freqset

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

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.SyntheticConfig{
		NumRecords: 250, Universe: 2500,
		AlphaFreq: 1.1, AlphaSize: 2.0,
		MinSize: 10, MaxSize: 120,
	}
	d, err := dataset.Synthetic(cfg, 44)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func bruteForce(d *dataset.Dataset, q dataset.Record, tstar float64) []int {
	out := []int{}
	for i, x := range d.Records {
		if q.Containment(x) >= tstar {
			out = append(out, i)
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := Build(&dataset.Dataset{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	d := testDataset(t)
	ix, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tstar := range []float64{0.1, 0.33, 0.5, 0.8, 1.0} {
		for _, q := range d.SampleQueries(20, 6) {
			got := ix.Search(q, tstar)
			want := bruteForce(d, q, tstar)
			if !sameInts(got, want) {
				t.Fatalf("t*=%v: got %v, want %v", tstar, got, want)
			}
		}
	}
}

func TestSearchCeilBoundary(t *testing.T) {
	// q = 4, t* = 0.5 → c = 2 exactly; records with overlap 1 are out, 2 in.
	d := &dataset.Dataset{
		Records: []dataset.Record{
			seqRecord(0, 1),   // overlap 1 → C = 0.25
			seqRecord(0, 2),   // overlap 2 → C = 0.5
			seqRecord(10, 20), // overlap 0
		},
		Universe: 20,
	}
	ix, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	q := seqRecord(0, 4)
	got := ix.Search(q, 0.5)
	if !sameInts(got, []int{1}) {
		t.Errorf("got %v, want [1]", got)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	d := testDataset(t)
	ix, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Search(dataset.Record{}, 0.5); got != nil {
		t.Errorf("empty query returned %v", got)
	}
	if got := ix.Search(d.Records[0], 0); len(got) != d.NumRecords() {
		t.Errorf("t*=0 returned %d", len(got))
	}
	if got := ix.Search(seqRecord(900000, 900005), 0.2); len(got) != 0 {
		t.Errorf("foreign query matched %v", got)
	}
}

func TestNumRecords(t *testing.T) {
	d := testDataset(t)
	ix, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.sizes) != d.NumRecords() {
		t.Errorf("%d records indexed, want %d", len(ix.sizes), d.NumRecords())
	}
}

func BenchmarkSearch(b *testing.B) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 1000, Universe: 10000,
		AlphaFreq: 1.1, AlphaSize: 2.0,
		MinSize: 20, MaxSize: 300,
	}
	d, err := dataset.Synthetic(cfg, 5)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(d)
	if err != nil {
		b.Fatal(err)
	}
	q := d.Records[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 0.5)
	}
}
