package lshensemble

import (
	"slices"
	"testing"

	"gbkmv/internal/dataset"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.SyntheticConfig{
		NumRecords: 600, Universe: 5000,
		AlphaFreq: 1.1, AlphaSize: 2.0,
		MinSize: 20, MaxSize: 400,
	}
	d, err := dataset.Synthetic(cfg, 55)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildValidation(t *testing.T) {
	d := testDataset(t)
	if _, err := Build(nil, Options{}, nil); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := Build(&dataset.Dataset{}, Options{}, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Build(d, Options{NumHashes: -1}, nil); err == nil {
		t.Error("negative NumHashes accepted")
	}
}

func TestBuildDefaults(t *testing.T) {
	d := testDataset(t)
	e, err := Build(d, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.records) != 600 {
		t.Errorf("numRecords = %d", len(e.records))
	}
	if len(e.partitions) != 32 {
		t.Errorf("%d partitions, want 32", len(e.partitions))
	}
	if e.SizeUnits() != 600*256 {
		t.Errorf("SizeUnits = %d, want %d", e.SizeUnits(), 600*256)
	}
}

func TestEqualDepthPartitioning(t *testing.T) {
	d := testDataset(t)
	e, err := Build(d, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds := make([][2]int, len(e.partitions))
	for i, p := range e.partitions {
		bounds[i] = [2]int{p.lower, p.upper}
	}
	// Bounds must be non-decreasing across partitions, and each partition's
	// lower bound must be ≥ the previous partition's upper... equal-depth by
	// size means ranges are ordered.
	for i := 1; i < len(bounds); i++ {
		if bounds[i][0] < bounds[i-1][1] && bounds[i][0] < bounds[i-1][0] {
			t.Errorf("partition %d bounds %v precede partition %d bounds %v",
				i, bounds[i], i-1, bounds[i-1])
		}
	}
	for _, b := range bounds {
		if b[0] > b[1] {
			t.Errorf("partition bounds inverted: %v", b)
		}
	}
}

func TestQuerySelfRetrieval(t *testing.T) {
	// A query identical to an indexed record has J = 1 within its
	// partition, so it must be retrieved at any threshold.
	d := testDataset(t)
	e, err := Build(d, Options{Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	for i := 0; i < 30; i++ {
		found := false
		for _, id := range e.Query(d.Records[i], 0.5) {
			if id == i {
				found = true
			}
		}
		if !found {
			missed++
		}
	}
	if missed > 1 {
		t.Errorf("self-query missed %d/30 times", missed)
	}
}

func TestQueryRecallAgainstGroundTruth(t *testing.T) {
	// LSH-E favours recall (Section III-B): most true results should be in
	// the candidate set at t* = 0.5.
	d := testDataset(t)
	e, err := Build(d, Options{Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const tstar = 0.5
	var tp, fn int
	for _, q := range d.SampleQueries(25, 17) {
		got := map[int]bool{}
		for _, id := range e.Query(q, tstar) {
			got[id] = true
		}
		for i, x := range d.Records {
			if q.Containment(x) >= tstar {
				if got[i] {
					tp++
				} else {
					fn++
				}
			}
		}
	}
	if tp == 0 {
		t.Fatal("no true positives retrieved")
	}
	recall := float64(tp) / float64(tp+fn)
	if recall < 0.5 {
		t.Errorf("recall = %v, want ≥ 0.5", recall)
	}
}

func TestQueryEmpty(t *testing.T) {
	d := testDataset(t)
	e, err := Build(d, Options{Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Query(dataset.Record{}, 0.5); got != nil {
		t.Errorf("empty query returned %v", got)
	}
}

func TestSizeFilterSkipsSmallPartitions(t *testing.T) {
	// With a huge query and t* = 0.9, partitions of tiny records cannot
	// qualify; the size filter must remove their candidates entirely.
	d := testDataset(t)
	e, err := Build(d, Options{Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var big dataset.Record
	for _, r := range d.Records {
		if len(r) > len(big) {
			big = r
		}
	}
	theta := 0.9 * float64(len(big))
	for _, id := range e.Query(big, 0.9) {
		if float64(len(d.Records[id])) < theta {
			t.Errorf("record %d of size %d cannot reach overlap %v",
				id, len(d.Records[id]), theta)
		}
	}
}

func TestNonDivisibleHashCount(t *testing.T) {
	// NumHashes not divisible by MaxBands: Build must adjust the band count
	// rather than fail.
	d := testDataset(t)
	e, err := Build(d, Options{NumHashes: 100, MaxBands: 32, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.SizeUnits() != 600*100 {
		t.Errorf("SizeUnits = %d", e.SizeUnits())
	}
	// Must still answer queries.
	if got := e.Query(d.Records[0], 0.5); len(got) == 0 {
		t.Log("query returned nothing (acceptable but unusual)")
	}
}

func TestFewRecordsManyPartitions(t *testing.T) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 5, Universe: 500,
		AlphaFreq: 1, AlphaSize: 1,
		MinSize: 10, MaxSize: 50,
	}
	d, err := dataset.Synthetic(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(d, Options{Seed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.partitions) > 5 {
		t.Errorf("%d partitions for 5 records", len(e.partitions))
	}
	for i := range d.Records {
		e.Query(d.Records[i], 0.5) // must not panic
	}
}

func BenchmarkBuild(b *testing.B) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 300, Universe: 3000,
		AlphaFreq: 1.1, AlphaSize: 2,
		MinSize: 20, MaxSize: 200,
	}
	d, err := dataset.Synthetic(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d, Options{Seed: 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	cfg := dataset.SyntheticConfig{
		NumRecords: 1000, Universe: 5000,
		AlphaFreq: 1.1, AlphaSize: 2,
		MinSize: 20, MaxSize: 200,
	}
	d, err := dataset.Synthetic(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	e, err := Build(d, Options{Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := d.Records[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Query(q, 0.5)
	}
}

func TestQueryVerifiedPerfectPrecision(t *testing.T) {
	d := testDataset(t)
	e, err := Build(d, Options{Seed: 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const tstar = 0.5
	for _, q := range d.SampleQueries(10, 21) {
		for _, id := range e.QueryVerified(q, tstar) {
			if q.Containment(d.Records[id]) < tstar {
				t.Fatalf("verified result %d below threshold", id)
			}
		}
	}
}

func TestQueryVerifiedSubsetOfQuery(t *testing.T) {
	d := testDataset(t)
	e, err := Build(d, Options{Seed: 13}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := d.Records[0]
	raw := map[int]bool{}
	for _, id := range e.Query(q, 0.5) {
		raw[id] = true
	}
	for _, id := range e.QueryVerified(q, 0.5) {
		if !raw[id] {
			t.Fatalf("verified result %d not among raw candidates", id)
		}
	}
}

// TestBuildSignsOnlyNewRecords: a rebuild over a grown dataset keeps the
// signatures it is handed — the same arrays, never signed again — signs the
// records past them, and indexes exactly what a build from scratch does.
func TestBuildSignsOnlyNewRecords(t *testing.T) {
	d := testDataset(t)
	opt := Options{NumHashes: 64, Seed: 9}
	const m = 450
	first, err := Build(&dataset.Dataset{Records: d.Records[:m], Universe: d.Universe}, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	prior := first.Signatures()
	if len(prior) != m {
		t.Fatalf("%d signatures for %d records", len(prior), m)
	}
	grown, err := Build(d, opt, prior)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Build(d, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs := grown.Signatures()
	if len(sigs) != len(d.Records) {
		t.Fatalf("%d signatures for %d records", len(sigs), len(d.Records))
	}
	signed := 0
	for i, sig := range sigs {
		if i >= m || &sig[0] != &prior[i][0] {
			signed++
		}
		if !slices.Equal(sig, scratch.Signatures()[i]) {
			t.Fatalf("record %d: signature differs from a build from scratch", i)
		}
	}
	if want := len(d.Records) - m; signed != want {
		t.Errorf("the rebuild signed %d records, want the %d new ones", signed, want)
	}
	for _, q := range d.SampleQueries(20, 3) {
		if got, want := grown.Query(q, 0.5), scratch.Query(q, 0.5); !slices.Equal(got, want) {
			t.Fatalf("rebuild returns %d candidates, a build from scratch %d", len(got), len(want))
		}
	}
	if _, err := Build(&dataset.Dataset{Records: d.Records[:m-1], Universe: d.Universe}, opt, prior); err == nil {
		t.Error("more signatures than records accepted")
	}
}
