package snapfmt

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// packFixture is records of every shape the coding has a case for: empty,
// one element, dense ids (one-byte gaps), gaps of two to ten bytes, a first
// element at and above 2⁶³, the largest element there is.
func packFixture(seed int64, n int) []dataset.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := []dataset.Record{
		{}, {0}, {math.MaxUint64}, {1 << 63}, {1<<63 + 5, math.MaxUint64},
		{0, math.MaxUint64}, // one ten-byte delta
		{127, 128, 255, 16383, 16384, 1 << 21, 1 << 28, 1 << 35, 1 << 42, 1 << 49, 1 << 56, 1 << 63},
	}
	for len(recs) < n {
		var elems []hash.Element
		switch rng.Intn(3) {
		case 0: // a vocabulary's ids
			for k := rng.Intn(200); k > 0; k-- {
				elems = append(elems, hash.Element(rng.Intn(5000)))
			}
		case 1: // arbitrary 64-bit ids
			for k := rng.Intn(20); k > 0; k-- {
				elems = append(elems, hash.Element(rng.Uint64()))
			}
		default: // a long run of one-byte gaps behind a large first element
			e := hash.Element(rng.Uint64() >> uint(rng.Intn(64)))
			for k := rng.Intn(300); k > 0 && e < math.MaxUint64-200; k-- {
				elems = append(elems, e)
				e += hash.Element(1 + rng.Intn(127))
			}
		}
		recs = append(recs, dataset.NewRecord(elems))
	}
	return recs
}

func sectionOf(t *testing.T, write func(*Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	write(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkPacked(t *testing.T, p *PackedRecords, want []dataset.Record, label string) {
	t.Helper()
	if p.Len() != len(want) {
		t.Fatalf("%s: %d records, want %d", label, p.Len(), len(want))
	}
	elements, top := 0, hash.Element(0)
	var buf []hash.Element
	for i, rec := range want {
		if got := p.Record(i); !slices.Equal(got, rec) || cap(got) != len(rec) {
			t.Fatalf("%s: record %d decodes to %v (cap %d), want %v", label, i, got, cap(got), rec)
		}
		if p.RecordLen(i) != len(rec) {
			t.Fatalf("%s: record %d has length %d, want %d", label, i, p.RecordLen(i), len(rec))
		}
		if buf = p.AppendRecord(buf[:0], i); !slices.Equal(buf, rec) {
			t.Fatalf("%s: record %d decodes into a reused buffer as %v, want %v", label, i, buf, rec)
		}
		elements += len(rec)
		for _, e := range rec {
			top = max(top, e)
		}
	}
	if p.Elements() != elements || p.Top() != top {
		t.Fatalf("%s: (elements, top) = (%d, %d), want (%d, %d)", label, p.Elements(), p.Top(), elements, top)
	}
	for i, rec := range p.All() {
		if !slices.Equal(rec, want[i]) {
			t.Fatalf("%s: All()[%d] = %v, want %v", label, i, rec, want[i])
		}
	}
}

// TestPackedRoundTrip: a store gives back what went in — packed at any worker
// count, appended one by one, or both; written, it is byte for byte the
// section Writer.Records writes for the same records; read back, it is the
// same store.
func TestPackedRoundTrip(t *testing.T) {
	recs := packFixture(1, 600)
	want := sectionOf(t, func(w *Writer) { w.Records(recs) })
	var appended PackedRecords
	for _, rec := range recs {
		appended.Append(rec)
	}
	checkPacked(t, &appended, recs, "appended")
	stores := map[string]*PackedRecords{"appended": &appended}
	for _, workers := range []int{1, 2, 3, 7, 1000} {
		p, err := PackRecords(recs, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkPacked(t, &p, recs, "packed")
		if chunks := p.data.Chunks(); len(chunks) != 1 || cap(chunks[0]) != p.data.Len() {
			t.Fatalf("%d workers: %d bytes packed into %d chunks, the first of %d: not one exact slab", workers, p.data.Len(), len(chunks), cap(chunks[0]))
		}
		stores["packed"] = &p
	}
	// Growth: half packed, the rest appended.
	grown, err := PackRecords(recs[:300], 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[300:] {
		grown.Append(rec)
	}
	checkPacked(t, &grown, recs, "packed, then appended")
	stores["grown"] = &grown
	for name, p := range stores {
		got := sectionOf(t, func(w *Writer) { w.Packed(p) })
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the store writes %d bytes, Writer.Records %d, or they differ", name, len(got), len(want))
		}
		if p.SizeBytes() != len(want)-len(sectionOf(t, func(w *Writer) { w.Int(p.Len()); w.Int(p.Elements()) }))+4*(len(recs)+1) {
			t.Fatalf("%s: SizeBytes = %d for a section of %d bytes and %d records", name, p.SizeBytes(), len(want), len(recs))
		}
	}
	for name, src := range map[string]func() *Reader{
		"bounded": func() *Reader { return NewReader(bytes.NewReader(want)) },
		"opaque":  func() *Reader { return NewReader(opaque{bytes.NewReader(want)}) },
	} {
		r := src()
		loaded := r.Packed()
		if err := r.Done(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPacked(t, &loaded, recs, name+", loaded")
		if !sameStore(&loaded, &appended) {
			t.Fatalf("%s: the loaded store is not the saved one", name)
		}
	}
}

// codings returns a store's bytes and where each record's coding ends in
// them: what it holds, whatever chunks it holds it in.
func codings(p *PackedRecords) (data []byte, ends []int) {
	for i := 0; i < p.Len(); i++ {
		data = append(data, p.coded(i)...)
		ends = append(ends, len(data))
	}
	return data, ends
}

// sameStore reports whether two stores hold the same: bytes, offsets, counts.
func sameStore(a, b *PackedRecords) bool {
	aData, aEnds := codings(a)
	bData, bEnds := codings(b)
	return bytes.Equal(aData, bData) && slices.Equal(aEnds, bEnds) && a.SizeBytes() == b.SizeBytes() &&
		a.elements == b.elements && a.top == b.top && a.unsorted == b.unsorted
}

// TestPackedPartitionAndFit: a store dealt out by Partition is, store by
// store, what PackRecords makes of the records routed there — one slab that
// fits them exactly, at any worker count, empty stores too — and one grown by
// Append holds what PackRecords makes of all of them.
func TestPackedPartitionAndFit(t *testing.T) {
	recs := packFixture(3, 500)
	route := func(rec dataset.Record) int {
		if len(rec) == 0 {
			return 4
		}
		return int((rec[0] + rec[len(rec)-1]) % 4) // store 5 gets nothing
	}
	whole, err := PackRecords(recs, 2)
	if err != nil {
		t.Fatal(err)
	}
	routed := make([][]dataset.Record, 6)
	for _, rec := range recs {
		routed[route(rec)] = append(routed[route(rec)], rec)
	}
	for _, workers := range []int{1, 2, 5, 1000} {
		parts, part, err := whole.Partition(6, workers, route)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if int(part[i]) != route(rec) {
				t.Fatalf("%d workers: record %d went to store %d, routed to %d", workers, i, part[i], route(rec))
			}
		}
		for s := range parts {
			want, err := PackRecords(routed[s], 3)
			if err != nil {
				t.Fatal(err)
			}
			if chunks := parts[s].data.Chunks(); !sameStore(&parts[s], &want) || len(chunks) != 1 || cap(chunks[0]) != want.data.Len() {
				t.Errorf("%d workers: store %d (%d records) is not what PackRecords makes of its records", workers, s, parts[s].Len())
			}
		}
	}
	var grown PackedRecords
	for _, rec := range recs {
		if err := grown.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !sameStore(&grown, &whole) {
		t.Errorf("appended: %d bytes, %d offsets; packed: %d, %d", grown.data.Len(), grown.offsets.Len(), whole.data.Len(), whole.offsets.Len())
	}
	unsorted, err := PackRecords([]dataset.Record{{1, 2}, {2, 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := unsorted.Partition(2, 1, func(dataset.Record) int { return 0 }); err == nil || !strings.Contains(err.Error(), "record 1 is not sorted") {
		t.Errorf("partitioning a store with an unsorted record: %v", err)
	}
}

// TestPackedUnsortedRefusesToSave: a record that breaks the Record invariant
// still decodes to itself (deltas wrap), so a store that was handed one — an
// insert cannot refuse — keeps answering, but names the record when written
// instead of producing a section no reader takes.
func TestPackedUnsortedRefusesToSave(t *testing.T) {
	good := []dataset.Record{{1, 2, 3}, {}, {2, 5, 9}}
	for _, bad := range []dataset.Record{{3, 1, 2}, {1, 2, 2}, {0, 0}} {
		packed, err := PackRecords(append(slices.Clone(good), bad, dataset.Record{7}), 2)
		if err != nil {
			t.Fatal(err)
		}
		appended, _ := PackRecords(good, 1)
		appended.Append(bad)
		appended.Append(dataset.Record{7})
		for name, p := range map[string]*PackedRecords{"packed": &packed, "appended": &appended} {
			checkPacked(t, p, append(slices.Clone(good), bad, dataset.Record{7}), name)
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.Packed(p)
			if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "record 3 is not sorted") {
				t.Errorf("%s holding %v: Flush = %v, want record 3 named", name, bad, err)
			}
		}
	}
}

// TestPackedRejectsMalformedSections: the section's one validation loop, on
// each thing a section can get wrong. All of them are corruption.
func TestPackedRejectsMalformedSections(t *testing.T) {
	wrap := append([]byte{2, 5}, bytes.Repeat([]byte{0xff}, 9)...) // 5, then a delta of 2⁶⁴−1
	wrap = append(wrap, 0x01)
	for name, section := range map[string][]byte{
		"padded length":     {1, 2, 0x82, 0x00, 5, 1},
		"padded delta":      {1, 2, 2, 5, 0x81, 0x00},
		"zero delta":        {1, 2, 2, 5, 0},
		"delta wraps 2^64":  append([]byte{1, 2}, wrap...),
		"length overruns":   {1, 2, 3, 5, 1, 1},
		"total not met":     {1, 3, 2, 5, 1},
		"truncated":         {2, 3, 2, 5, 1, 1},
		"count past source": {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
	} {
		r := NewReader(bytes.NewReader(section))
		r.Packed()
		if err := r.Done(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	// The one-element record {2⁶⁴−1} and a first element ≥ 2⁶³ are not wraps.
	r := NewReader(bytes.NewReader(sectionOf(t, func(w *Writer) {
		w.Records([]dataset.Record{{math.MaxUint64}, {1 << 63, 1<<63 + 1}})
	})))
	if p := r.Packed(); r.Done() != nil || p.Len() != 2 || p.Top() != math.MaxUint64 {
		t.Errorf("records of the largest elements did not load: %v", r.Err())
	}
}

// TestPackedLimit drives the offset table's bound through a stubbed limit
// rather than 4 GB of records: packing that many bytes is an error, an append
// that would reach it is the same error and leaves the store alone (a caller
// in the middle of a batch asks first: CheckRoom, which takes every uvarint at
// its longest), a partition into stores that long is refused, and a section
// that long is corrupt.
func TestPackedLimit(t *testing.T) {
	recs := packFixture(2, 50)
	p, err := PackRecords(recs, 2)
	if err != nil {
		t.Fatal(err)
	}
	section := sectionOf(t, func(w *Writer) { w.Packed(&p) })
	defer SetPackLimit(packLimit)()

	packLimit = p.data.Len() // one byte too many
	if _, err := PackRecords(recs, 2); err == nil || !strings.Contains(err.Error(), "offset table") {
		t.Errorf("packing %d bytes at limit %d: %v", p.data.Len(), packLimit, err)
	}
	r := NewReader(bytes.NewReader(section))
	r.Packed()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("loading %d bytes at limit %d: %v", p.data.Len(), packLimit, err)
	}

	packLimit = p.data.Len() + 3 // the store fits; a record of three bytes does not
	if _, err := PackRecords(recs, 2); err != nil {
		t.Fatalf("packing %d bytes at limit %d: %v", p.data.Len(), packLimit, err)
	}
	if err := p.Append(dataset.Record{9}); err != nil { // two bytes
		t.Fatalf("Append under the limit: %v", err)
	}
	if err := p.CheckRoom(0, 0); err != nil {
		t.Errorf("CheckRoom for nothing: %v", err)
	}
	if err := p.CheckRoom(1, 0); err == nil {
		t.Error("CheckRoom let a record into a store one byte under its limit")
	}
	if err := p.CheckRoom(math.MaxInt/2, math.MaxInt/2); err == nil {
		t.Error("CheckRoom overflowed on an absurd batch")
	}
	before := p.data.Len()
	if err := p.Append(dataset.Record{9}); err == nil || !strings.Contains(err.Error(), "offset table") || p.data.Len() != before || p.Len() != len(recs)+1 {
		t.Errorf("Append past the limit: %v, store of %d records and %d bytes", err, p.Len(), p.data.Len())
	}
	packLimit = p.data.Len() / 2
	if _, _, err := p.Partition(1, 2, func(dataset.Record) int { return 0 }); err == nil || !strings.Contains(err.Error(), "offset table") {
		t.Errorf("partition into one store of %d bytes at limit %d: %v", p.data.Len(), packLimit, err)
	}
}

// TestPackedAppendAllocatesWhatItStores: a store grown record by record
// allocates the chunks that hold its codings and offsets — what it stores and
// at most a chunk over of each — where a slab and a table grown by append
// allocated 4.87 times that in copies.
func TestPackedAppendAllocatesWhatItStores(t *testing.T) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 20000, Universe: 50000, AlphaFreq: 1.1, AlphaSize: 2.35, MinSize: 20, MaxSize: 500,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	var p PackedRecords
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, rec := range d.Records {
		if err := p.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	allocated := int(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("a store of %d bytes allocated %d as it grew: %.2f×", p.SizeBytes(), allocated, float64(allocated)/float64(p.SizeBytes()))
	if allocated > p.SizeBytes()+p.SizeBytes()/50+2*(64<<10) {
		t.Errorf("a store of %d bytes allocated %d as it grew", p.SizeBytes(), allocated)
	}
	checkPacked(t, &p, d.Records, "appended")
}
