package lshforest_test

import (
	"slices"
	"sync"
	"testing"

	"gbkmv/internal/asymminhash"
	"gbkmv/internal/dataset"
	"gbkmv/internal/lshensemble"
	"gbkmv/internal/lshforest"
)

func paramsDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 200, Universe: 3000,
		AlphaFreq: 1.1, AlphaSize: 2,
		MinSize: 10, MaxSize: 200,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOneTableAShape: the (b, r) table is computed once per forest shape, on
// the first probe, and never by a build: two ensembles, a rebuild of one of
// them and an asymmetric minwise index of one shape (96 hashes in 12 trees of
// depth 8) compute one table between them, however often they are queried.
func TestOneTableAShape(t *testing.T) {
	lshforest.ResetTables()
	d := paramsDataset(t)
	a, err := lshensemble.Build(d, lshensemble.Options{NumHashes: 96, MaxBands: 12, NumPartitions: 4, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lshensemble.Build(d, lshensemble.Options{NumHashes: 96, MaxBands: 14, NumPartitions: 8, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	am, err := asymminhash.Build(d, asymminhash.Options{NumHashes: 96, MaxBands: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := lshforest.TablesComputed(); got != 0 {
		t.Fatalf("the builds computed %d tables, want none", got)
	}
	if l, depth := lshforest.Shape(96, 14); l != 12 || depth != 8 {
		t.Fatalf("Shape(96, 14) = (%d, %d), want (12, 8)", l, depth)
	}
	for _, q := range d.SampleQueries(10, 1) {
		for _, tstar := range []float64{0.1, 0.5, 0.9} {
			a.Query(q, tstar)
			b.Query(q, tstar)
			am.Query(q, tstar)
		}
	}
	rebuilt, err := lshensemble.Build(d, lshensemble.Options{NumHashes: 96, MaxBands: 12, NumPartitions: 4, Seed: 1}, a.Signatures())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range d.SampleQueries(10, 2) {
		if got, want := rebuilt.Query(q, 0.5), a.Query(q, 0.5); !slices.Equal(got, want) {
			t.Fatalf("the rebuild answers %v, the build %v", got, want)
		}
	}
	if got := lshforest.TablesComputed(); got != 1 {
		t.Errorf("one shape computed %d tables, want 1", got)
	}
}

// TestFirstUseConcurrent: goroutines that make forests of a shape no one has
// probed yet, and goroutines that query one ensemble of that shape, all reach
// its table at once; one table is computed and every caller reads it whole.
func TestFirstUseConcurrent(t *testing.T) {
	lshforest.ResetTables()
	d := paramsDataset(t)
	e, err := lshensemble.Build(d, lshensemble.Options{NumHashes: 60, MaxBands: 10, NumPartitions: 4, Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := d.SampleQueries(8, 3)
	const workers = 4
	params := make([][][2]int, workers)
	answers := make([][][]int, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			f, err := lshforest.New(10, 6)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i <= 100; i++ {
				b, r := f.OptimalParams(float64(i) / 100)
				params[w] = append(params[w], [2]int{b, r})
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for _, q := range queries {
				answers[w] = append(answers[w], e.Query(q, 0.5))
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := lshforest.TablesComputed(); got != 1 {
		t.Errorf("%d tables computed for one shape, want 1", got)
	}
	for w := 1; w < workers; w++ {
		if !slices.Equal(params[w], params[0]) {
			t.Fatalf("goroutine %d read %v, goroutine 0 %v", w, params[w], params[0])
		}
		for i := range queries {
			if !slices.Equal(answers[w][i], answers[0][i]) {
				t.Fatalf("query %d: goroutine %d read %v, goroutine 0 %v", i, w, answers[w][i], answers[0][i])
			}
		}
	}
	for i, q := range queries {
		if got := e.Query(q, 0.5); !slices.Equal(got, answers[0][i]) {
			t.Fatalf("query %d: %v after first use, %v during it", i, got, answers[0][i])
		}
	}
}
