package core

import (
	"bytes"
	"fmt"
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

// TestPackedIndexRefusesUnsortedOnSave: no record that breaks the
// sorted-and-deduplicated invariant reaches a save, because none reaches the
// index: AddRecords refuses a batch holding one, naming its place in the
// batch, before it touches anything, and the index saves the same stream as
// before and then grows as it would have.
func TestPackedIndexRefusesUnsortedOnSave(t *testing.T) {
	d := buildTestDataset(t, 63, 40)
	ix, err := BuildIndex(d, Options{BudgetFraction: 0.5, BufferBits: NoBuffer, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := ix.Save(&before); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []dataset.Record{{9, 4, 4}, {4, 4}, {3, 2}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != "core: record 1 is not sorted and deduplicated" {
					t.Errorf("AddRecords over %v panicked with %q", bad, msg)
				}
			}()
			ix.AddRecords([]dataset.Record{{1, 2, 3}, bad})
		}()
	}
	var after bytes.Buffer
	if err := ix.Save(&after); err != nil {
		t.Fatal(err)
	}
	if ix.NumRecords() != 40 || !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Fatalf("a refused batch left %d records and a save of %d bytes, want 40 and %d", ix.NumRecords(), after.Len(), before.Len())
	}
	ix.AddRecords([]dataset.Record{{1, 2, 3}})
	if err := ix.Save(&after); err != nil || ix.NumRecords() != 41 || !slices.Equal(ix.Record(40), dataset.Record{1, 2, 3}) {
		t.Fatalf("after the refusals an insert gave %d records (%v), save: %v", ix.NumRecords(), ix.Record(ix.NumRecords()-1), err)
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
	for name, src := range map[string]recordSource{"packed": {packed: &recs}, "slices": {slices: d.Records}} {
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

// TestBuildFromSlicesMatchesPacked: a build from slices — which sizes every
// record's coding in its counting pass and codes the store beside the rest of
// the build — saves the bytes of a build that decodes the same records from a
// store packed beforehand (snapfmt.PackRecords, which measures them in a pass
// of its own), in each of BenchmarkDesignCorpus's regimes and at 1, 2 and 8
// workers.
func TestBuildFromSlicesMatchesPacked(t *testing.T) {
	defer func() { forcedBuildWorkers = 0 }()
	for name, c := range designCases(designCorpus(t)) {
		recs, err := snapfmt.PackRecords(c.d.Records, 2)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			forcedBuildWorkers = workers
			label := fmt.Sprintf("%s, %d workers", name, workers)
			// The index takes the store over but changes none of it.
			packed, err := BuildPacked(recs, c.opt)
			if err != nil {
				t.Fatalf("%s, from the store: %v", label, err)
			}
			ix, err := BuildIndex(c.d, c.opt)
			if err != nil {
				t.Fatalf("%s, from the slices: %v", label, err)
			}
			if want == nil {
				want = snapshot(t, packed, label)
			}
			if !bytes.Equal(snapshot(t, packed, label), want) {
				t.Errorf("%s: the build from the store saves other bytes than at 1 worker", label)
			}
			if !bytes.Equal(snapshot(t, ix, label), want) {
				t.Errorf("%s: the builds from the slices and from the store save different bytes", label)
			}
		}
	}
}

// TestBuildReadsNoSliceAfterReturn: a build from slices codes the store it
// keeps on goroutines of its own, beside the rest of the build, and waits for
// them before it returns, on every path. The caller overwrites its records the
// moment the build returns — a read after that is a race the detector reports
// under -race — and the index saves and hands back what a build from a copy
// does. Each error a build can meet once its counting pass has sized the
// store is taken too: records past the store's offset table (before the
// coding starts), a buffer past its bound and more kept keys than the posting
// lists address (while it runs).
func TestBuildReadsNoSliceAfterReturn(t *testing.T) {
	d := buildTestDataset(t, 64, 300)
	fresh := func() []dataset.Record {
		records := make([]dataset.Record, len(d.Records))
		for i, rec := range d.Records {
			records[i] = slices.Clone(rec)
		}
		return records
	}
	overwrite := func(records []dataset.Record) {
		for _, rec := range records {
			for j := range rec {
				rec[j] = hash.Element(j)
			}
		}
	}
	opt := Options{BudgetFraction: 0.3, BufferBits: AutoBuffer, Seed: testSeed}
	want, err := BuildIndex(&dataset.Dataset{Records: fresh()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap := snapshot(t, want, "from a copy")
	defer func() { forcedBuildWorkers = 0 }()
	for _, workers := range []int{1, 2, 8} {
		forcedBuildWorkers = workers
		records := fresh()
		ix, err := BuildIndex(&dataset.Dataset{Records: records}, opt)
		overwrite(records)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshot(t, ix, "overwritten"), wantSnap) {
			t.Errorf("%d workers: the index saves other bytes than a build from a copy", workers)
		}
		for i, rec := range d.Records {
			if got := ix.Record(i); !slices.Equal(got, rec) {
				t.Fatalf("%d workers: Record(%d) = %v, want %v", workers, i, got, rec)
			}
		}
	}

	for _, tc := range []struct {
		name string
		opt  Options
		set  func() (restore func())
		want string
	}{
		{"past the offset table", opt, func() func() { return snapfmt.SetPackLimit(100) }, "offset table"},
		{"buffer past its bound", Options{BudgetUnits: math.MaxInt, BufferBits: 1 << 40, Seed: testSeed}, nil, "BufferBits"},
		{"posting room", Options{BudgetFraction: 1, BufferBits: NoBuffer, Seed: testSeed}, func() func() {
			old := postingLimit
			postingLimit = 10
			return func() { postingLimit = old }
		}, "32-bit positions"},
	} {
		for _, workers := range []int{1, 2, 8} {
			forcedBuildWorkers = workers
			func() {
				if tc.set != nil {
					defer tc.set()()
				}
				records := fresh()
				_, err := BuildIndex(&dataset.Dataset{Records: records}, tc.opt)
				overwrite(records)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s, %d workers: %v, want an error naming %q", tc.name, workers, err, tc.want)
				}
			}()
		}
	}
}
