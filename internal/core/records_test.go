package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// TestPackedIndexRecords: the index keeps its records packed and hands back
// what it was given after a build, after inserts have grown the slab —
// arbitrary 64-bit elements among them (a build's are a vocabulary's: first
// elements at and above 2⁶³, ten-byte gaps), empty and one-element records —
// and after a reload; it retains none of the caller's slices; and the
// Records() shim, once called, stays in step with the inserts.
func TestPackedIndexRecords(t *testing.T) {
	base := buildTestDataset(t, 61, 120).Records
	odd := []dataset.Record{
		{}, {0}, {math.MaxUint64}, {1 << 63, 1<<63 + 1}, {0, math.MaxUint64},
		{3, 1 << 20, 1 << 40, 1 << 62, 1<<63 + 9},
	}
	given := append(slices.Clone(base), dataset.Record{}, dataset.Record{5999})
	input := make([]dataset.Record, len(given))
	for i, rec := range given {
		input[i] = slices.Clone(rec)
	}
	ix, err := BuildIndex(&dataset.Dataset{Records: input, Universe: 6000}, Options{BudgetFraction: 0.3, BufferBits: 64, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	// The caller's slices are its own again: scribbling over them changes
	// nothing the index answers.
	for _, rec := range input {
		for j := range rec {
			rec[j] = hash.Element(j)
		}
	}
	check := func(ix *Index, label string) {
		t.Helper()
		if ix.NumRecords() != len(given) {
			t.Fatalf("%s: %d records, want %d", label, ix.NumRecords(), len(given))
		}
		for i, want := range given {
			got := ix.Record(i)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Record(%d) = %v, want %v", label, i, got, want)
			}
			if len(got) > 0 {
				got[0]++ // a copy: the next call is unaffected
				if again := ix.Record(i); !slices.Equal(again, want) {
					t.Fatalf("%s: Record(%d) handed out the index's own memory", label, i)
				}
			}
		}
	}
	check(ix, "built")
	if ix.decoded != nil {
		t.Fatal("Record materialised the Records() shim")
	}

	// Growth past the slab's exact build-time size, then the shim.
	more := append(buildTestDataset(t, 62, 90).Records, odd...)
	more = append(more, odd...) // each odd record twice
	given = append(given, more[:50]...)
	ix.AddRecords(slices.Clone(more[:50]))
	check(ix, "grown")
	shim := ix.Records()
	given = append(given, more[50:]...)
	ix.AddRecords(more[50:])
	check(ix, "grown again")
	if shim = ix.Records(); len(shim) != len(given) {
		t.Fatalf("Records() holds %d records after inserts, want %d", len(shim), len(given))
	}
	for i, want := range given {
		if !slices.Equal(shim[i], want) {
			t.Fatalf("Records()[%d] = %v, want %v", i, shim[i], want)
		}
	}
	if got, want := ix.RecordSizeBytes(), ix.recs.SizeBytes(); got != want || got >= 8*ix.recs.Elements() {
		t.Fatalf("RecordSizeBytes = %d, store %d, for %d occurrences", got, want, ix.recs.Elements())
	}

	loaded := reload(t, ix, "grown")
	check(loaded, "reloaded")
	sameDerived(t, loaded, ix, "reloaded")
	// A self-join decodes its queries from the store, a record a worker at a
	// time: it answers what searching with the caller's copies does.
	var want []Pair
	for q, rec := range given {
		for _, x := range loaded.Search(rec, 0.6) {
			if x != q {
				want = append(want, Pair{Q: q, X: x})
			}
		}
	}
	if got := loaded.Join(0.6); !slices.Equal(got, want) || len(want) == 0 {
		t.Fatalf("Join finds %d pairs, searching record by record %d", len(got), len(want))
	}
}

// TestPackedIndexRefusesUnsortedOnSave: AddRecords cannot refuse a record
// that breaks the sorted-and-deduplicated invariant, and the packed store
// holds it faithfully; Save names it rather than write a stream no loader
// takes.
func TestPackedIndexRefusesUnsortedOnSave(t *testing.T) {
	ix, err := BuildIndex(buildTestDataset(t, 63, 40), Options{BudgetFraction: 0.5, BufferBits: NoBuffer, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	bad := dataset.Record{9, 4, 4}
	ix.AddRecords([]dataset.Record{bad})
	if got := ix.Record(40); !slices.Equal(got, bad) {
		t.Fatalf("Record(40) = %v, want %v", got, bad)
	}
	if err := ix.Save(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "record 40 is not sorted") {
		t.Fatalf("Save = %v, want record 40 named", err)
	}
}

// TestPackedStats: what a build reads of its records in its one counting
// pass — the element counts, summed into the frequency table — and the record
// sizes the cost model asks for are what the dataset computes from the
// slices, at every worker count, whether the build reads the slices or
// decodes the store; the table stops at the largest element the records hold.
func TestPackedStats(t *testing.T) {
	d := buildTestDataset(t, 62, 300)
	d.Records = append(d.Records, dataset.Record{}, dataset.Record{5999})
	recs, err := snapfmt.PackRecords(d.Records, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantFreq := (&dataset.Dataset{Records: d.Records, Universe: 6000}).Frequencies()
	defer func() { forcedBuildWorkers = 0 }()
	for name, src := range map[string]recordSource{"packed": {packed: &recs}, "slices": {packed: &recs, slices: d.Records}} {
		sizes := make([]int, recs.Len())
		for i := range sizes {
			sizes[i] = src.size(i)
		}
		if !slices.Equal(sizes, d.RecordSizes()) {
			t.Errorf("%s: sizes differ from the dataset's", name)
		}
		for _, workers := range []int{1, 2, 3, 7} {
			forcedBuildWorkers = workers
			if freq, _ := countElements(src).frequencies(); !slices.Equal(freq, wantFreq) {
				t.Errorf("%s, %d workers: frequencies differ from the dataset's", name, workers)
			}
		}
	}
	empty, err := snapfmt.PackRecords([]dataset.Record{{}, {}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := recordSource{packed: &empty}
	if freq, _ := countElements(src).frequencies(); len(freq) != 0 || src.size(0) != 0 || src.size(1) != 0 {
		t.Errorf("records without elements: %d frequencies, sizes %d and %d", len(freq), src.size(0), src.size(1))
	}
}
