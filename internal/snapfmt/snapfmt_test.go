package snapfmt

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// opaque hides everything but Read, as a bufio.Reader or a network body
// would: the reader cannot learn how long the source is.
type opaque struct{ r io.Reader }

func (o opaque) Read(p []byte) (int, error) { return o.r.Read(p) }

type sections struct {
	Elems   []hash.Element
	Records []dataset.Record
	Strings stringTable
	Signed  int64
}

func fixture(n int) sections {
	s := sections{Signed: -1}
	for i := 0; i < n; i++ {
		s.Elems = append(s.Elems, hash.Element(i*i))
		rec := dataset.Record{}
		for j := 0; j < i%7; j++ {
			rec = append(rec, hash.Element(i+j*1000))
		}
		s.Records = append(s.Records, rec)
		s.Strings.add(string(rune('a'+i%26)) + "tok")
	}
	return s
}

// stringTable is a string table as StringTable reads it: the strings' bytes
// back to back and n+1 offsets into them.
type stringTable struct {
	Offsets []uint32
	Text    []byte
}

func (st *stringTable) add(s string) {
	if len(st.Offsets) == 0 {
		st.Offsets = []uint32{0}
	}
	st.Text = append(st.Text, s...)
	st.Offsets = append(st.Offsets, uint32(len(st.Text)))
}

func (st stringTable) len() int { return max(0, len(st.Offsets)-1) }

func (st stringTable) equal(o stringTable) bool {
	return st.len() == o.len() && (st.len() == 0 || slices.Equal(st.Offsets, o.Offsets)) && bytes.Equal(st.Text, o.Text)
}

func (s sections) write(w io.Writer) error {
	sw := NewWriter(w)
	sw.Magic("TESTMAGC")
	sw.Varint(s.Signed)
	sw.Elements(s.Elems)
	writeRecords(sw, s.Records)
	sw.StringTable(s.Strings.len(), func(i int) int { return int(s.Strings.Offsets[i+1] - s.Strings.Offsets[i]) }, [][]byte{s.Strings.Text})
	return sw.Flush()
}

func read(r io.Reader) (sections, error) {
	sr := NewReader(r)
	sr.Magic("TESTMAGC")
	var s sections
	s.Signed = sr.Varint()
	s.Elems = sr.Elements()
	recs := sr.Packed()
	s.Records = recs.All()
	s.Strings.Offsets, s.Strings.Text = sr.StringTable()
	return s, sr.Done()
}

// equal compares ignoring the nil/empty distinction of slices.
func equal(a, b sections) bool {
	norm := func(s sections) sections {
		for i, r := range s.Records {
			if len(r) == 0 {
				s.Records[i] = nil
			}
		}
		s.Strings = stringTable{}
		return s
	}
	return a.Strings.equal(b.Strings) && reflect.DeepEqual(norm(a), norm(b))
}

// TestRoundTrip: every encoding survives the trip, whether or not the source
// can say how long it is, at sizes on both sides of the 64 kB buffer.
func TestRoundTrip(t *testing.T) {
	for _, n := range []int{1, 9, 5000, 40000} {
		want := fixture(n)
		var buf bytes.Buffer
		if err := want.write(&buf); err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]io.Reader{
			"bounded": bytes.NewReader(buf.Bytes()),
			"opaque":  opaque{bytes.NewReader(buf.Bytes())},
		} {
			got, err := read(src)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if !equal(got, want) {
				t.Fatalf("n=%d %s: round trip changed the sections", n, name)
			}
		}
		// Records are windows of one slab.
		got, _ := read(bytes.NewReader(buf.Bytes()))
		var prev dataset.Record
		for _, r := range got.Records {
			if len(r) == 0 {
				continue
			}
			if prev != nil && unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*8) != unsafe.Pointer(&r[0]) {
				t.Fatalf("n=%d: records are not contiguous in one slab", n)
			}
			prev = r
		}
	}
}

func TestFormatAndStructureErrors(t *testing.T) {
	var good bytes.Buffer
	if err := fixture(20).write(&good); err != nil {
		t.Fatal(err)
	}
	b := good.Bytes()
	with := func(i int, v byte) []byte {
		c := bytes.Clone(b)
		c[i] = v
		return c
	}
	for name, tc := range map[string]struct {
		in   []byte
		want error
	}{
		"other magic":    {with(0, 'X'), ErrFormat},
		"other version":  {with(8, Version+1), ErrFormat},
		"too short":      {b[:5], ErrFormat},
		"empty":          {nil, ErrFormat},
		"truncated":      {b[:len(b)-1], ErrCorrupt},
		"trailing bytes": {append(bytes.Clone(b), 0), ErrCorrupt},
	} {
		if _, err := read(bytes.NewReader(tc.in)); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
	}

	section := func(write func(*Writer), read func(*Reader)) error {
		var buf bytes.Buffer
		sw := NewWriter(&buf)
		write(sw)
		if err := sw.Flush(); err != nil {
			return err
		}
		sr := NewReader(&buf)
		read(sr)
		return sr.Done()
	}
	if err := section(func(w *Writer) { w.Write([]byte{0x80, 0x00}) }, func(r *Reader) { r.Uvarint() }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("padded varint: %v", err)
	}
	// One record, two elements, the second gap zero: a duplicate.
	if err := section(func(w *Writer) { w.Write(append([]byte{1, 2}, appendRecord(nil, dataset.Record{5, 5})...)) }, func(r *Reader) { r.Packed() }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate element: %v", err)
	}
	// One record claiming more elements than the section declares.
	if err := section(func(w *Writer) { w.Write(append([]byte{1, 1}, appendRecord(nil, dataset.Record{5, 6})...)) }, func(r *Reader) { r.Packed() }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("record overrunning the section total: %v", err)
	}
}

// TestDeclaredCountsDoNotAllocate: a count is honoured only as far as the
// bytes behind it go. Against a source of known length a section that cannot
// fit is rejected before anything is allocated; against an opaque one
// allocation follows the bytes that actually arrive.
func TestDeclaredCountsDoNotAllocate(t *testing.T) {
	readers := map[string]func(*Reader){
		"elems":   func(r *Reader) { r.Elements() },
		"records": func(r *Reader) { r.Packed() },
		"strings": func(r *Reader) { r.StringTable() },
	}
	var hostile bytes.Buffer
	sw := NewWriter(&hostile)
	sw.Uvarint(1 << 40) // a count (for records and strings: the first of two)
	sw.Uvarint(1 << 40)
	sw.Write(make([]byte, 4096))
	sw.Flush()
	for name, read := range readers {
		for _, bounded := range []bool{true, false} {
			var src io.Reader = bytes.NewReader(hostile.Bytes())
			if !bounded {
				src = opaque{src}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sr := NewReader(src)
			read(sr)
			err := sr.Done()
			runtime.ReadMemStats(&m1)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s bounded=%v: %v, want ErrCorrupt", name, bounded, err)
			}
			// The fixed buffer, plus for an opaque source a first step and
			// its doublings over 4 kB of input — nowhere near the terabytes
			// declared.
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 4<<20 {
				t.Errorf("%s bounded=%v: allocated %d bytes for a %d-byte stream", name, bounded, got, hostile.Len())
			}
		}
	}
}

func TestSlabsLoadExactly(t *testing.T) {
	// Against a source of known length every slab is allocated once, at its
	// final size: loading allocates what it keeps plus the fixed buffer.
	load := func(want sections) (allocated, held, stream float64) {
		var buf bytes.Buffer
		if err := want.write(&buf); err != nil {
			t.Fatal(err)
		}
		var m0, m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		got, err := read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		runtime.GC()
		runtime.ReadMemStats(&m2)
		if !slices.Equal(got.Elems, want.Elems) || !got.Strings.equal(want.Strings) {
			t.Error("slab content changed")
		}
		// Or the second GC frees them and held comes out short.
		runtime.KeepAlive(got)
		runtime.KeepAlive(&buf)
		return float64(m1.TotalAlloc - m0.TotalAlloc), float64(m2.HeapAlloc - m0.HeapAlloc), float64(buf.Len())
	}
	all := fixture(200000)
	if allocated, held, _ := load(sections{Elems: all.Elems}); allocated > 1.1*held+bufSize {
		t.Errorf("loading an element list allocated %.0f bytes to keep %.0f", allocated, held)
	}
	// Decoded records are Packed and a decode: the section's own bytes are
	// staged on the way to the element slab — the stream's length once, in
	// the store's chunks, and the one coding buffer the reader reuses across
	// records — never a second element slab.
	if allocated, held, stream := load(sections{Records: all.Records}); allocated > 1.1*held+bufSize+4*stream {
		t.Errorf("loading decoded records allocated %.0f bytes to keep %.0f from a stream of %.0f", allocated, held, stream)
	}
	// A string table loads as its bytes and its offsets, no string an entry.
	if allocated, held, _ := load(sections{Strings: all.Strings}); allocated > 1.1*held+bufSize {
		t.Errorf("loading a string table allocated %.0f bytes to keep %.0f", allocated, held)
	}
	runtime.KeepAlive(all)
}

// TestPackedLoadsInPlace: the store a vocabulary's records load into — ids
// dense, so gaps of a few bits — is allocated once, a chunk
// at a time as the bytes arrive, within a chunk of codings and one of offsets
// of what it holds, and takes a fifth of what the decoded records do.
func TestPackedLoadsInPlace(t *testing.T) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 20000, Universe: 50000, AlphaFreq: 1.1, AlphaSize: 2.5, MinSize: 10, MaxSize: 300,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewWriter(&buf)
	writeRecords(sw, d.Records)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sr := NewReader(bytes.NewReader(buf.Bytes()))
	p := sr.Packed()
	if err := sr.Done(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	kept := 0
	for _, chunk := range p.data.Chunks() {
		kept += cap(chunk)
	}
	for _, chunk := range p.offsets.Chunks() {
		kept += 4 * cap(chunk)
	}
	allocated := int(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("section %d bytes: store of %d (%d in use) for %d occurrences, load allocated %d",
		buf.Len(), kept, p.SizeBytes(), p.Elements(), allocated)
	if allocated > kept+bufSize+8192 {
		t.Errorf("loading a store of %d bytes allocated %d", kept, allocated)
	}
	if kept > p.SizeBytes()+p.SizeBytes()/50+2*(64<<10) {
		t.Errorf("chunks of %d bytes for a store of %d", kept, p.SizeBytes())
	}
	if decoded := 8*d.TotalElements() + 24*d.NumRecords(); 5*kept > decoded {
		t.Errorf("store of %d bytes, the decoded records take %d", kept, decoded)
	}
}
