package snapfmt

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/hash"
)

// fuzzRecords reads records off the input: a byte of length (0–15 elements,
// and the high bit asks for a record that breaks the Record invariant), then
// per element up to eight bytes of value shifted right by the first byte's
// low six bits, so gaps of every class turn up. The harness sorts and
// deduplicates each record; a breaking one is made to repeat or descend
// after that. It returns the records and the index of the first breaking one
// (-1 for none).
func fuzzRecords(data []byte) (recs []dataset.Record, broken int) {
	broken = -1
	for len(data) > 0 {
		head := data[0]
		data = data[1:]
		elems := []hash.Element{}
		for k := int(head & 15); k > 0 && len(data) > 0; k-- {
			var word [8]byte
			n := copy(word[:], data)
			data = data[n:]
			v := binary.LittleEndian.Uint64(word[:]) >> (word[0] & 63)
			if n < 8 {
				v >>= 8 * uint(8-n) // a short tail is a small value
			}
			elems = append(elems, hash.Element(v))
		}
		rec := dataset.NewRecord(elems)
		if head&0x80 != 0 && len(rec) > 0 {
			if len(rec) == 1 || head&0x40 != 0 {
				rec = append(rec, rec[len(rec)-1]) // a duplicate
			} else {
				slices.Reverse(rec) // descending
			}
			if broken < 0 {
				broken = len(recs)
			}
		}
		recs = append(recs, rec)
	}
	return recs, broken
}

// FuzzPackedRoundTrip holds the record coding to its three claims:
//
//   - every uint64 set codes: arbitrary sets, sorted and deduplicated here,
//     with gaps up to 2⁶⁴ − 1, come back from a store they were appended to
//     and from one PackRecords made, both write the same section as the
//     reference writer, and that section loads back into the same store;
//   - a record that repeats or descends is refused where it would be coded:
//     PackRecords names the first and Append the id it would have had, which
//     leaves the store holding the records before it;
//   - arbitrary bytes through Reader.Packed never panic and never allocate
//     by a count they declare, and they load only if writing what loaded
//     gives the same bytes back: the reader takes canonical codings only.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add([]byte{0x82, 0x40, 1, 2, 3, 4, 5, 6, 7, 0x41, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{0xc1, 0x07, 0x01, 0x00, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	for _, rec := range []dataset.Record{{}, {0}, {5, 6, 8}, {1<<14 - 1}, {1 << 14}, {0, math.MaxUint64}, {1 << 46, 1<<47 + 1<<46}} {
		f.Add(section(1, len(rec), appendRecord(nil, rec)))
	}
	for _, tc := range malformedSections() {
		f.Add(tc.section)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, broken := fuzzRecords(data)
		var appended PackedRecords
		for i, rec := range recs {
			err := appended.Append(rec)
			if i == broken {
				if err != (UnsortedError{broken}) {
					t.Fatalf("Append(%v), record %d: %v", rec, broken, err)
				}
				checkPacked(t, &appended, recs[:broken], "appended before the refusal")
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		packed, err := PackRecords(recs, 1+len(data)%3)
		if broken >= 0 {
			if err != (UnsortedError{broken}) {
				t.Fatalf("PackRecords over %v (record %d): %v", recs[broken], broken, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*PackedRecords{"appended": &appended, "packed": &packed} {
			checkPacked(t, p, recs, name)
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.Packed(p)
			if err := w.Flush(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := sectionOf(t, func(w *Writer) { writeRecords(w, recs) }); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s: the store writes %x, the reference %x", name, buf.Bytes(), want)
			}
			r := NewReader(bytes.NewReader(buf.Bytes()))
			loaded := r.Packed()
			if err := r.Done(); err != nil {
				t.Fatalf("%s: its own section does not load: %v", name, err)
			}
			if !sameStore(&loaded, &appended) {
				t.Fatalf("%s: the loaded store is not the appended one", name)
			}
		}

		// The input as a section.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(data))
		p := r.Packed()
		err = r.Done()
		runtime.ReadMemStats(&after)
		// The reader's fixed buffer, the store's first chunks and its
		// doublings over what the input backs: nothing a count declares.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+32*len(data)); got > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		if again := sectionOf(t, func(w *Writer) { w.Packed(&p) }); !bytes.Equal(again, data) {
			t.Fatalf("%x loads, and writes back as %x", data, again)
		}
	})
}
