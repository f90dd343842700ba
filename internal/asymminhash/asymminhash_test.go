package asymminhash

import (
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/lshensemble"
)

func seqRecord(lo, hi int) dataset.Record {
	elems := make([]hash.Element, 0, hi-lo)
	for i := lo; i < hi; i++ {
		elems = append(elems, hash.Element(i))
	}
	return dataset.NewRecord(elems)
}

func testDataset(t *testing.T, alphaSize float64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.SyntheticConfig{
		NumRecords: 400, Universe: 5000,
		AlphaFreq: 1.1, AlphaSize: alphaSize,
		MinSize: 20, MaxSize: 400,
	}
	d, err := dataset.Synthetic(cfg, 66)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := Build(&dataset.Dataset{}, Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Build(testDataset(t, 2), Options{NumHashes: -4}); err == nil {
		t.Error("negative NumHashes accepted")
	}
}

func TestMaxSizeIsPaddingTarget(t *testing.T) {
	d := testDataset(t, 2)
	ix, err := Build(d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range d.Records {
		if len(r) > want {
			want = len(r)
		}
	}
	if ix.maxSize != want {
		t.Errorf("maxSize = %d, want %d", ix.maxSize, want)
	}
	if len(ix.sizes) != 400 || ix.opt.NumHashes != 256 {
		t.Errorf("%d records signed with %d hashes, want 400 with the 256 default", len(ix.sizes), ix.opt.NumHashes)
	}
}

func TestPaddedSignatureConsistency(t *testing.T) {
	// Two records of equal size get the same pad contribution, so identical
	// records have identical padded signatures.
	d := testDataset(t, 2)
	ix, err := Build(d, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := ix.paddedSignature(d.Records[0])
	b := ix.paddedSignature(d.Records[0])
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("padded signature not deterministic")
		}
	}
}

func TestPadMinMonotone(t *testing.T) {
	d := testDataset(t, 2)
	ix, err := Build(d, Options{NumHashes: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range ix.padMin {
		for j := 1; j < len(row); j++ {
			if row[j] > row[j-1] {
				t.Fatalf("padMin[%d] not non-increasing at %d", i, j)
			}
		}
	}
}

func TestQuerySelfRetrieval(t *testing.T) {
	d := testDataset(t, 2)
	ix, err := Build(d, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The largest records suffer least padding; they must be retrievable by
	// their own query.
	bigID := 0
	for i, r := range d.Records {
		if len(r) > len(d.Records[bigID]) {
			bigID = i
		}
	}
	found := false
	for _, id := range ix.Query(d.Records[bigID], 0.5) {
		if id == bigID {
			found = true
		}
	}
	if !found {
		t.Error("largest record not retrieved by its own query")
	}
}

func TestQueryEmptyAndEdge(t *testing.T) {
	d := testDataset(t, 2)
	ix, err := Build(d, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Query(dataset.Record{}, 0.5); got != nil {
		t.Errorf("empty query returned %v", got)
	}
	// Foreign query: may return candidates (unverified) but must not panic.
	ix.Query(seqRecord(100000, 100050), 0.5)
}

func TestJaccardThreshold(t *testing.T) {
	d := testDataset(t, 2)
	ix, err := Build(d, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// s* = t*q / (M + q − t*q), monotone in t*.
	prev := -1.0
	for _, tstar := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		s := ix.jaccardThreshold(tstar, 100)
		if s <= prev {
			t.Fatalf("threshold not monotone at t*=%v", tstar)
		}
		if s < 0 || s > 1 {
			t.Fatalf("threshold out of range: %v", s)
		}
		prev = s
	}
}

func TestSkewedSizesHurtF1VsLSHE(t *testing.T) {
	// The motivation for LSH-E (and the reason the GB-KMV paper uses LSH-E
	// as the baseline): padding every record to the single global maximum
	// size inflates the effective upper bound far more than LSH-E's
	// per-partition bounds, so on skewed size distributions asymmetric
	// minwise hashing loses the precision/recall trade-off. Compare F1 at
	// t* = 0.5.
	d := testDataset(t, 2.5) // skewed sizes: most records much smaller than max
	am, err := Build(d, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	le, err := lshensemble.Build(d, lshensemble.Options{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f1 := func(results func(dataset.Record, float64) []int) float64 {
		var tp, fp, fn int
		for _, q := range d.SampleQueries(25, 3) {
			got := map[int]bool{}
			for _, id := range results(q, 0.5) {
				got[id] = true
			}
			for i, x := range d.Records {
				truth := q.Containment(x) >= 0.5
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
	fAM := f1(am.Query)
	fLE := f1(le.Query)
	if fAM > fLE+0.02 {
		t.Errorf("asym minwise F1 %.3f above LSH-E %.3f on skewed sizes (unexpected)", fAM, fLE)
	}
}

func BenchmarkQuery(b *testing.B) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 500, Universe: 5000,
		AlphaFreq: 1.1, AlphaSize: 2,
		MinSize: 20, MaxSize: 300,
	}
	d, err := dataset.Synthetic(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(d, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := d.Records[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(q, 0.5)
	}
}
