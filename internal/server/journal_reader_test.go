package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"gbkmv"
)

// scannerFixture builds a frame stream of five entries (mixing tagged and
// untagged frames) and returns the stream plus each frame's end boundary.
func scannerFixture(t *testing.T) (frames []byte, boundaries []int64, want []journalEntry) {
	t.Helper()
	want = []journalEntry{
		{Tokens: []string{"a", "b"}},
		{Tokens: []string{"c"}, RequestID: "r1"},
		{Tokens: []string{"d", "e", "f"}, RequestID: "r1"},
		{Tokens: []string{"g"}},
		{Tokens: []string{"h", "i"}, RequestID: "r2"},
	}
	for _, e := range want {
		var err error
		frames, err = marshalFrame(frames, e.Tokens, e.RequestID)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, int64(len(frames)))
	}
	return frames, boundaries, want
}

// TestScannerEveryCutPoint cuts the stream at every possible byte length:
// the scanner must return exactly the fully-contained frames, report the
// last intact boundary as its offset, and never error — a cut is either a
// clean end (on a boundary) or a torn tail (anywhere else).
func TestScannerEveryCutPoint(t *testing.T) {
	frames, boundaries, want := scannerFixture(t)
	for cut := 0; cut <= len(frames); cut++ {
		s := newFrameScanner(frames[:cut], 0, "cut")
		got, err := s.scanAll()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantN := 0
		var wantOff int64
		for i, b := range boundaries {
			if int64(cut) >= b {
				wantN, wantOff = i+1, b
			}
		}
		if len(got) != wantN || s.Offset() != wantOff {
			t.Fatalf("cut %d: %d entries at offset %d, want %d at %d", cut, len(got), s.Offset(), wantN, wantOff)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("cut %d entry %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
	}
}

// TestScannerResync proves the torn-tail offset is a valid resume point:
// rescanning the remainder of the stream from Offset() yields exactly the
// entries the cut withheld — the contract both the follower's reconnect
// and startup replay's truncation rely on.
func TestScannerResync(t *testing.T) {
	frames, boundaries, want := scannerFixture(t)
	// Cut mid-way through the fourth frame.
	cut := int(boundaries[3]) - 3
	s := newFrameScanner(frames[:cut], 0, "first")
	head, err := s.scanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != 3 || s.Offset() != boundaries[2] {
		t.Fatalf("head scan: %d entries at %d, want 3 at %d", len(head), s.Offset(), boundaries[2])
	}
	// Resume from the reported offset over the rest of the stream (base
	// offset carried through, as the follower does when re-requesting).
	s2 := newFrameScanner(frames[s.Offset():], s.Offset(), "resync")
	tail, err := s2.scanAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := append(head, tail...); !reflect.DeepEqual(got, want) {
		t.Fatalf("resynced entries = %+v, want %+v", got, want)
	}
	if s2.Offset() != int64(len(frames)) {
		t.Fatalf("resynced offset = %d, want %d", s2.Offset(), len(frames))
	}
}

// TestScannerInteriorCorruptionIsHardError: a bad payload CRC with frames
// after it can't be a torn tail — silently truncating would drop
// acknowledged entries.
func TestScannerInteriorCorruption(t *testing.T) {
	frames, _, _ := scannerFixture(t)
	mangled := bytes.Clone(frames)
	mangled[13] ^= 0xff // inside the first frame's payload
	if _, err := newFrameScanner(mangled, 0, "corrupt").scanAll(); err == nil {
		t.Fatal("interior corruption not reported")
	}
}

// TestScannerCorruptFinalFrame: with a known size bound, a bad CRC on the
// very last frame is indistinguishable from a torn append and must scan as
// one; with the bound unknown (a network stream of sealed frames), the same
// bytes are corruption.
func TestScannerCorruptFinalFrame(t *testing.T) {
	frames, boundaries, _ := scannerFixture(t)
	mangled := bytes.Clone(frames)
	mangled[len(mangled)-1] ^= 0xff
	s := newFrameScanner(mangled, 0, "tail")
	got, err := s.scanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || s.Offset() != boundaries[3] {
		t.Fatalf("%d entries at %d, want 4 at %d", len(got), s.Offset(), boundaries[3])
	}
	su := newJournalScanner(bytes.NewReader(mangled), 0, -1, "stream")
	if _, err := su.scanAll(); err == nil {
		t.Fatal("corrupt frame on an unbounded stream not reported")
	}
}

// TestScannerCorruptHeaderCRC: a complete header whose length checksum
// doesn't match is corruption everywhere — a torn write produces a short
// header, never a wrong one.
func TestScannerCorruptHeaderCRC(t *testing.T) {
	frames, boundaries, _ := scannerFixture(t)
	mangled := bytes.Clone(frames)
	mangled[boundaries[1]+5] ^= 0xff // length CRC of the third frame
	if _, err := newFrameScanner(mangled, 0, "hdr").scanAll(); err == nil {
		t.Fatal("corrupt header CRC not reported")
	}
}

// TestForEachRidRun checks the batch partitioning both replay paths share:
// the runs scanRuns reports as it decodes.
func TestForEachRidRun(t *testing.T) {
	frames, _, want := scannerFixture(t)
	type run struct {
		start, end int
		rid        string
	}
	var got []run
	s := newFrameScanner(frames, 0, "runs")
	n, err := s.scanRuns(func(*tokenBatch) {}, func(i, j int, rid string) { got = append(got, run{i, j, rid}) })
	if err != nil || n != len(want) || len(s.toks.recEnds) != len(want) {
		t.Fatalf("scanned %d records (%d held), %v", n, len(s.toks.recEnds), err)
	}
	expect := []run{{0, 1, ""}, {1, 3, "r1"}, {3, 4, ""}, {4, 5, "r2"}}
	if !reflect.DeepEqual(got, expect) {
		t.Fatalf("runs = %v, want %v", got, expect)
	}
	for i, e := range want {
		if tokens := tokensOfRecord(&s.toks, i); !reflect.DeepEqual(tokens, e.Tokens) {
			t.Fatalf("record %d = %q, want %q", i, tokens, e.Tokens)
		}
	}
}

// fuzzJournalSeeds runs a real collection through a build, inserts with and
// without request ids and a snapshot between them, and returns its journal
// and commit record as they lie on disk.
func fuzzJournalSeeds(tb testing.TB) (journal, metaJSON []byte) {
	tb.Helper()
	dir := tb.TempDir()
	store, err := NewStore(dir, func(string, ...any) {})
	if err != nil {
		tb.Fatal(err)
	}
	defer store.Close()
	voc := gbkmv.NewVocabulary()
	eng, err := gbkmv.Build([]gbkmv.Record{voc.Record([]string{"seed", "one"})}, gbkmv.Options{BudgetUnits: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := store.Create("j", voc, eng)
	if err != nil {
		tb.Fatal(err)
	}
	insert := func(rid string, batch ...[]string) {
		if _, err := c.Insert(batch, rid); err != nil {
			tb.Fatal(err)
		}
	}
	insert("rid-0", []string{"before", "the", "snapshot"})
	if c, err = store.Snapshot("j"); err != nil {
		tb.Fatal(err)
	}
	insert("", []string{"a", "b"})
	insert("rid-1", []string{"c"}, []string{"d", "e", "f"})
	// Tokens the encoder escapes.
	insert("", []string{"é", "quote\"", "back\\slash", "<&>", "tab\t", "😀", " "})
	insert("rid \"2\"", []string{"g"})
	cdir := filepath.Join(dir, "j")
	if metaJSON, err = os.ReadFile(metaPath(cdir)); err != nil {
		tb.Fatal(err)
	}
	m, err := decodeMeta(metaJSON, "meta.json")
	if err != nil {
		tb.Fatal(err)
	}
	if journal, err = os.ReadFile(journalPath(cdir, m.Generation)); err != nil {
		tb.Fatal(err)
	}
	return journal, metaJSON
}

// TestFuzzJournalSeeds keeps the fuzz seeds honest: the journal holds the
// five frames inserted after the snapshot, tagged and untagged, and the
// commit record remembers the request from before it.
func TestFuzzJournalSeeds(t *testing.T) {
	journal, metaJSON := fuzzJournalSeeds(t)
	s := newFrameScanner(journal, 0, "seed")
	entries, err := s.scanAll()
	if err != nil || len(entries) != 5 || s.Offset() != int64(len(journal)) {
		t.Fatalf("seed journal: %d entries to offset %d of %d, %v", len(entries), s.Offset(), len(journal), err)
	}
	if entries[0].RequestID != "" || entries[1].RequestID != "rid-1" || entries[4].RequestID != "rid \"2\"" {
		t.Fatalf("seed journal request ids: %+v", entries)
	}
	m, err := decodeMeta(metaJSON, "meta.json")
	if err != nil || m.Generation != 2 || len(m.Requests) != 1 || len(m.Checksums) != 2 {
		t.Fatalf("seed commit record: %+v, %v", m, err)
	}
}

// FuzzJournalScanner: arbitrary bytes through the frame scanner never panic
// and never allocate by a length the bytes only declare; whatever prefix
// decodes re-encodes through marshalFrame to exactly the bytes consumed, so
// the decoder loses nothing the encoder writes and Offset() is a frame
// boundary. (The fuzzer cannot forge the two CRC32s around a payload the
// encoder would have written differently — whitespace, an unknown field —
// so every frame that decodes here is one a seed holds.) The same bytes
// framed as one payload under valid checksums reach the payload decoder
// itself: it rejects what the reference decoder (encoding/json) rejects, and
// what it decodes is what the reference decodes and survives a round trip.
func FuzzJournalScanner(f *testing.F) {
	journal, _ := fuzzJournalSeeds(f)
	f.Add(journal)
	for n := 0; n < len(journal); n += 7 {
		f.Add(journal[:n])
	}
	// An intact header that declares 48 MB over three bytes.
	huge := binary.BigEndian.AppendUint32(nil, 48<<20)
	huge = binary.BigEndian.AppendUint32(huge, crc32.ChecksumIEEE(huge))
	f.Add(append(huge, 0, 0, 0, 0, '[', '"', 'a'))
	f.Add([]byte(`{"rid":"r","tokens":["a"],"more":1}`))
	f.Add([]byte(` ["a", "b"]`))
	f.Add([]byte(`{"TOKENS":["x"],"Rid":null,"tokens":["a\ud83d","\u00e9"],"rid":"r\n","more":{"deep":[1,true,null]}} `))
	f.Add([]byte(`{"rid":"r","tokens":null}`))
	f.Add([]byte(`{"rid":5,"tokens":["a"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`["a"] x`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := newFrameScanner(data, 0, "fuzz")
		entries, err := s.scanAll()
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); got > bound {
			t.Fatalf("scanning %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err == nil {
			var again []byte
			for _, e := range entries {
				if again, err = marshalFrame(again, e.Tokens, e.RequestID); err != nil {
					t.Fatalf("a decoded entry does not encode: %v", err)
				}
			}
			if s.Offset() > int64(len(data)) || !bytes.Equal(again, data[:s.Offset()]) {
				t.Fatalf("%d entries to offset %d re-encode to %d other bytes", len(entries), s.Offset(), len(again))
			}
		}

		var hdr [12]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(data)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(hdr[0:4]))
		binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(data))
		framed, err := newFrameScanner(append(hdr[:], data...), 0, "framed").scanAll()
		// The payload decoder accepts what encoding/json accepted and reads it
		// the same — but for a null token under a repeated key, which
		// encoding/json leaves holding the earlier key's string (ingest.go).
		ref, refErr := decodeEntry(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("payload %q: scanner error %v, reference error %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if len(framed) != 1 {
			t.Fatalf("one intact frame scanned as %d entries", len(framed))
		}
		if ref.Tokens == nil {
			ref.Tokens = []string{}
		}
		if !bytes.Contains(data, []byte("null")) && !reflect.DeepEqual(framed[0], ref) {
			t.Fatalf("payload %q: scanned %+v, reference %+v", data, framed[0], ref)
		}
		again, err := marshalFrame(nil, framed[0].Tokens, framed[0].RequestID)
		if err != nil {
			t.Fatalf("a decoded entry does not encode: %v", err)
		}
		if back, err := newFrameScanner(again, 0, "again").scanAll(); err != nil || !reflect.DeepEqual(back, framed) {
			t.Fatalf("entry %+v came back as %+v, %v", framed[0], back, err)
		}
	})
}

// FuzzDecodeMeta: arbitrary bytes as a commit record never panic, and one
// that decodes survives encode → decode unchanged.
func FuzzDecodeMeta(f *testing.F) {
	_, metaJSON := fuzzJournalSeeds(f)
	f.Add(metaJSON)
	for n := 0; n < len(metaJSON); n += 11 {
		f.Add(metaJSON[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMeta(data, "fuzz")
		if err != nil {
			return
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("a decoded commit record does not encode: %v", err)
		}
		m2, err := decodeMeta(enc, "again")
		if err != nil {
			t.Fatalf("an encoded commit record does not decode: %v", err)
		}
		if enc2, err := json.Marshal(m2); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("commit record changed across encode → decode:\n%s\n%s (%v)", enc, enc2, err)
		}
	})
}
