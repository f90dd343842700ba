package snapfmt

import (
	"bytes"
	"encoding/binary"
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
// one element, dense ids (gaps of a nibble class), gaps at every class edge,
// escaped classes up to 64 — a first element at and above 2⁶³, the largest
// element there is, a gap of 2⁶⁴ − 1 —, and two records longer than the
// reader's 64 kB buffer: 200 000 consecutive ids, and 20 000 arbitrary ones.
func packFixture(seed int64, n int) []dataset.Record {
	rng := rand.New(rand.NewSource(seed))
	edges := dataset.Record{}
	for c := 1; c <= 64; c++ { // each class's least and largest gap
		for _, g := range []hash.Element{1 << (c - 1), 1<<(c-1) | (1<<(c-1) - 1)} {
			if len(edges) == 0 {
				edges = append(edges, g)
			} else if last := edges[len(edges)-1]; last <= math.MaxUint64-g {
				edges = append(edges, last+g)
			}
		}
	}
	long := make(dataset.Record, 200000)
	for i := range long {
		long[i] = hash.Element(i + 3)
	}
	wide := make([]hash.Element, 20000)
	for i := range wide {
		wide[i] = hash.Element(rng.Uint64())
	}
	recs := []dataset.Record{
		{}, {0}, {math.MaxUint64}, {1 << 63}, {1<<63 + 5, math.MaxUint64},
		{0, math.MaxUint64}, // a gap of class 64
		{127, 128, 255, 16383, 16384, 1 << 21, 1 << 28, 1 << 35, 1 << 42, 1 << 49, 1 << 56, 1 << 63},
		edges, long, dataset.NewRecord(wide),
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
		default: // a long run of small gaps behind a large first element
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

// TestRecordCodingBytes pins the coding bit for bit: the length, then each
// gap as a 4-bit class, six more bits holding class − 15 past class 14, and
// the gap's bits below its leading 1, least significant bit first, the last
// byte zero-padded.
func TestRecordCodingBytes(t *testing.T) {
	for _, tc := range []struct {
		rec  dataset.Record
		want []byte
	}{
		{dataset.Record{}, []byte{0x00}},
		{dataset.Record{0}, []byte{0x01, 0x00}},
		{dataset.Record{1}, []byte{0x01, 0x01}},
		// 5 is class 3 (0011) and 01 below its leading 1; 6 is a gap of 1,
		// class 1 (0001); 8 a gap of 2, class 2 (0010) and a 0: 15 bits.
		{dataset.Record{5, 6, 8}, []byte{0x03, 0x53, 0x08}},
		// 2¹⁴ − 1 is class 14 (1110) and thirteen ones; 2¹⁴ is class 15: the
		// escape (1111), 000000, then fourteen zeros.
		{dataset.Record{1<<14 - 1}, []byte{0x01, 0xfe, 0xff, 0x01}},
		{dataset.Record{1 << 14}, []byte{0x01, 0x0f, 0x00, 0x00}},
		// 0 is class 0 (0000); a gap of 2⁶⁴ − 1 is class 64: the escape,
		// 49 (110001), then sixty-three ones.
		{dataset.Record{0, math.MaxUint64}, append([]byte{0x02, 0xf0, 0xf1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0x1f)},
	} {
		got := appendRecord(nil, tc.rec)
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%v codes as %x, want %x", tc.rec, got, tc.want)
		}
		if size, _, _ := measure(tc.rec); size != len(tc.want) {
			t.Errorf("%v measures %d bytes, codes in %d", tc.rec, size, len(tc.want))
		}
		if dec := decodeRecord(nil, tc.want); !slices.Equal(dec, tc.rec) {
			t.Errorf("%x decodes to %v, want %v", tc.want, dec, tc.rec)
		}
	}
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
// section writeRecords writes for the same records; read back, it is the
// same store.
func TestPackedRoundTrip(t *testing.T) {
	recs := packFixture(1, 600)
	want := sectionOf(t, func(w *Writer) { writeRecords(w, recs) })
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
			t.Fatalf("%s: the store writes %d bytes, writeRecords %d, or they differ", name, len(got), len(want))
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
		data = append(data, p.data.Run(*p.offsets.Ptr(i), *p.offsets.Ptr(i + 1))...)
		ends = append(ends, len(data))
	}
	return data, ends
}

// sameStore reports whether two stores hold the same: bytes, offsets, counts.
func sameStore(a, b *PackedRecords) bool {
	aData, aEnds := codings(a)
	bData, bEnds := codings(b)
	return bytes.Equal(aData, bData) && slices.Equal(aEnds, bEnds) && a.SizeBytes() == b.SizeBytes() &&
		a.elements == b.elements && a.top == b.top
}

// TestPackedGrownEqualsPacked: a store grown by Append holds what
// PackRecords makes of the same records.
func TestPackedGrownEqualsPacked(t *testing.T) {
	recs := packFixture(3, 500)
	whole, err := PackRecords(recs, 2)
	if err != nil {
		t.Fatal(err)
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
}

// TestPackedUnsortedRefusesToSave: a record that breaks the Record invariant
// is refused where it would be coded, so no store holds one and no section
// written from a store can: PackRecords names the first and codes nothing,
// and Append names the id it would have had and leaves the store as it was,
// which then takes the next record and writes the section of the records it
// holds.
func TestPackedUnsortedRefusesToSave(t *testing.T) {
	good := []dataset.Record{{1, 2, 3}, {}, {2, 5, 9}}
	for _, bad := range []dataset.Record{{3, 1, 2}, {1, 2, 2}, {0, 0}} {
		if _, err := PackRecords(append(slices.Clone(good), bad, dataset.Record{7}, bad), 2); err != (UnsortedError{3}) {
			t.Errorf("PackRecords over %v: %v, want record 3 named", bad, err)
		}
		appended, _ := PackRecords(good, 1)
		if err := appended.Append(bad); err != (UnsortedError{3}) {
			t.Errorf("Append(%v): %v, want record 3 named", bad, err)
		}
		if err := appended.Append(dataset.Record{7}); err != nil {
			t.Fatal(err)
		}
		want := append(slices.Clone(good), dataset.Record{7})
		checkPacked(t, &appended, want, "appended")
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Packed(&appended)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if ref := sectionOf(t, func(w *Writer) { writeRecords(w, want) }); !bytes.Equal(buf.Bytes(), ref) {
			t.Errorf("after refusing %v the store writes %x, the reference %x", bad, buf.Bytes(), ref)
		}
	}
}

// section returns a records section of the given record codings, with the
// counts declared.
func section(records, elements int, codings ...[]byte) []byte {
	b := binary.AppendUvarint(nil, uint64(records))
	b = binary.AppendUvarint(b, uint64(elements))
	return append(b, bytes.Join(codings, nil)...)
}

// malformedSections is a records section for each thing one can get wrong,
// and what the reader says about it.
func malformedSections() map[string]struct {
	section []byte
	why     string
} {
	good := appendRecord(nil, dataset.Record{5, 6})
	type malformed = struct {
		section []byte
		why     string
	}
	return map[string]malformed{
		"padded length":    {section(1, 2, []byte{0x82, 0x00}, good[1:]), "padded varint"},
		"zero gap":         {section(1, 2, appendRecord(nil, dataset.Record{5, 5})), "not strictly ascending"},
		"gap wraps 2^64":   {section(1, 2, appendRecord(nil, dataset.Record{5, 3})), "not strictly ascending"},
		"class above 64":   {section(1, 1, []byte{0x01, 0x2f, 0x03}, bytes.Repeat([]byte{0xff}, 8), []byte{0x01}), "class above 64"}, // the escape, 50: class 65
		"padding set":      {section(1, 1, []byte{0x01, 0x81}), "padded with set bits"},
		"length overruns":  {section(1, 2, appendRecord(nil, dataset.Record{5, 6, 7})), "3 elements, section declares 2"},
		"total not met":    {section(1, 3, good), "hold 2 elements, section declares 3"},
		"truncated":        {section(2, 4, good, good[:1]), "stream ends"},
		"bits cut short":   {section(1, 1, []byte{0x01, 0x0f}), "stream ends"}, // an escape and nothing after it
		"count past bytes": {section(1, 1<<40, binary.AppendUvarint(nil, 1<<40), []byte{0x11}), "stream ends"},
	}
}

// TestPackedRejectsMalformedSections: the section's one validation loop, on
// each thing a section can get wrong. All of them are corruption. (The
// escape holds class − 15, so no coding can escape a class a nibble holds.)
func TestPackedRejectsMalformedSections(t *testing.T) {
	for name, tc := range malformedSections() {
		r := NewReader(bytes.NewReader(tc.section))
		r.Packed()
		if err := r.Done(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: %v, want ErrCorrupt: …%s", name, err, tc.why)
		}
	}
	// The one-element record {2⁶⁴−1} and a first element ≥ 2⁶³ are not wraps.
	r := NewReader(bytes.NewReader(sectionOf(t, func(w *Writer) {
		writeRecords(w, []dataset.Record{{math.MaxUint64}, {1 << 63, 1<<63 + 1}})
	})))
	if p := r.Packed(); r.Done() != nil || p.Len() != 2 || p.Top() != math.MaxUint64 {
		t.Errorf("records of the largest elements did not load: %v", r.Err())
	}
}

// TestPackedLimit drives the offset table's bound through a stubbed limit
// rather than 4 GB of records: packing that many bytes is an error, an append
// that would reach it is the same error and leaves the store alone (a caller
// in the middle of a batch asks first: CheckRoom, which takes every uvarint at
// its longest), and a section that long is corrupt.
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

// writeRecords writes the records section of recs one coding at a time: the
// reference the store's own writer, Writer.Packed, is held to.
func writeRecords(w *Writer, recs []dataset.Record) {
	total := 0
	for _, r := range recs {
		total += len(r)
	}
	w.Int(len(recs))
	w.Int(total)
	for _, rec := range recs {
		w.Write(appendRecord(nil, rec))
	}
}
