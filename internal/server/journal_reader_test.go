package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gbkmv"
	"gbkmv/internal/fsx"
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
		frame, err := encodeBatch([][]string{e.Tokens}, e.RequestID)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame...)
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
	var entries []journalEntry
	s := newFrameScanner(frames, 0, "runs")
	n, err := s.scanRuns(func(f *frame) error {
		entries = append(entries, entryOf(f))
		return nil
	}, func(i, j int, rid string) { got = append(got, run{i, j, rid}) })
	if err != nil || n != len(want) || !reflect.DeepEqual(entries, want) {
		t.Fatalf("scanned %d records %+v, %v", n, entries, err)
	}
	expect := []run{{0, 1, ""}, {1, 3, "r1"}, {3, 4, ""}, {4, 5, "r2"}}
	if !reflect.DeepEqual(got, expect) {
		t.Fatalf("runs = %v, want %v", got, expect)
	}
}

// TestJSONFrameRefused: a frame of the JSON form earlier builds journaled,
// intact under its checksums, fails replay and a follower's apply with an
// error that names that form — never scanned as a torn tail, which would
// truncate it and every frame behind it away — and a store skips the
// collection at startup with the remedy a snapshot of another format gets.
func TestJSONFrameRefused(t *testing.T) {
	intact, err := encodeBatch([][]string{{"a", "b"}}, "")
	if err != nil {
		t.Fatal(err)
	}
	legacy := append(bytes.Clone(intact), frameOf([]byte(`{"rid":"r","tokens":["c"]}`))...)
	path := filepath.Join(t.TempDir(), "journal.log")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayJournal(fsx.Default, path); !errors.Is(err, errJSONFrame) || !strings.Contains(err.Error(), "JSON token frame") {
		t.Fatalf("replaying a JSON frame: %v", err)
	}

	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	voc := gbkmv.NewVocabulary()
	eng, err := gbkmv.Build([]gbkmv.Record{voc.Record([]string{"seed"})}, gbkmv.Options{BudgetUnits: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c, err := store.Create("c", voc, eng)
	if err != nil {
		t.Fatal(err)
	}
	if _, applied, err := c.ApplyReplicated(1, 0, legacy); err == nil || !strings.Contains(err.Error(), "JSON token frame") || applied != 0 {
		t.Fatalf("a follower applied a chunk with a JSON frame: %d, %v", applied, err)
	}
	if st := c.Stats(); st.NumRecords != 1 || st.WALOffsetBytes != 0 {
		t.Fatalf("the refused chunk left %+v", st)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readMeta(fsx.Default, filepath.Join(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(filepath.Join(dir, "c"), m.Generation), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	reopened, err := OpenStore(dir, StoreOptions{Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, err := reopened.Get("c"); err == nil || !strings.Contains(strings.Join(logged, "\n"), "JSON token frame") ||
		!strings.Contains(strings.Join(logged, "\n"), "rebuild the collection") {
		t.Fatalf("a store opened a collection with a JSON frame in its journal: %v\n%s", err, strings.Join(logged, "\n"))
	}
}

// fuzzJournalSeeds runs a real collection through a build, inserts with and
// without request ids and a snapshot between them, and returns its journal,
// the vocabulary file of the snapshot it follows and its commit record as
// they lie on disk. Its frames carry ids of the snapshot's tokens and of a
// token an earlier frame introduced, and tokens as bytes.
func fuzzJournalSeeds(tb testing.TB) (journal, vocab, metaJSON []byte) {
	tb.Helper()
	dir := tb.TempDir()
	store, err := OpenStore(dir, StoreOptions{Logf: func(string, ...any) {}})
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
	insert("", []string{"a", "b", "seed"})
	insert("rid-1", []string{"c", "snapshot"}, []string{"d", "e", "f", "a", "one"})
	insert("", []string{"é", "quote\"", "back\\slash", "<&>", "tab\t", "😀", " "})
	insert("rid \"2\"", []string{"g", "before", "c"})
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
	if vocab, err = os.ReadFile(vocabPath(cdir, m.Generation)); err != nil {
		tb.Fatal(err)
	}
	return journal, vocab, metaJSON
}

// TestFuzzJournalSeeds keeps the fuzz seeds honest: the journal holds the
// five frames inserted after the snapshot, tagged and untagged, carrying ids
// and tokens, and the commit record remembers the request from before it.
func TestFuzzJournalSeeds(t *testing.T) {
	journal, _, metaJSON := fuzzJournalSeeds(t)
	s := newFrameScanner(journal, 0, "seed")
	entries, err := s.scanAll()
	if err != nil || len(entries) != 5 || s.Offset() != int64(len(journal)) {
		t.Fatalf("seed journal: %d entries to offset %d of %d, %v", len(entries), s.Offset(), len(journal), err)
	}
	if entries[0].RequestID != "" || entries[1].RequestID != "rid-1" || entries[4].RequestID != "rid \"2\"" {
		t.Fatalf("seed journal request ids: %+v", entries)
	}
	// "seed" is the build's first token; "a", the first frame's first.
	if len(entries[0].IDs) != 1 || entries[0].IDs[0] != 0 || len(entries[2].IDs) != 2 || len(entries[2].Tokens) != 3 {
		t.Fatalf("seed journal ids: %+v", entries)
	}
	m, err := decodeMeta(metaJSON, "meta.json")
	if err != nil || m.Generation != 2 || len(m.Requests) != 1 || len(m.Checksums) != 2 {
		t.Fatalf("seed commit record: %+v, %v", m, err)
	}
}

// FuzzJournalScanner: arbitrary bytes through the frame scanner never panic
// and never allocate by a length the bytes only declare; every frame that
// decodes holds ascending ids and survives the reference coder
// (framePayload) unchanged. The same bytes are then applied frame by frame
// as replay applies them, on the vocabulary of the snapshot the seed journal
// follows, and admitted as a follower admits a chunk, on another copy of it:
// an id past the vocabulary as it stands at a frame is refused exactly there,
// and the two agree on every frame. Last, the bytes framed as one payload
// under valid checksums reach the payload decoder itself, which refuses a
// JSON frame of an earlier build by name.
func FuzzJournalScanner(f *testing.F) {
	journal, vocab, _ := fuzzJournalSeeds(f)
	f.Add(journal)
	for n := 0; n < len(journal); n += max(1, len(journal)/40) {
		f.Add(journal[:n])
	}
	// An intact header that declares 48 MB over three bytes.
	huge := binary.BigEndian.AppendUint32(nil, 48<<20)
	huge = binary.BigEndian.AppendUint32(huge, crc32.ChecksumIEEE(huge))
	f.Add(append(huge, 0, 0, 0, 0, frameIDs, 0, 1))
	f.Add([]byte(`{"rid":"r","tokens":["a"]}`))
	f.Add([]byte(`["a", "b"]`))
	f.Add(frameOf([]byte(`["a"]`)))
	f.Add(framePayload(journalEntry{IDs: []gbkmv.Element{0, 3, 9}, Tokens: []string{"x", ""}, RequestID: "r"}))
	f.Add(frameOf(framePayload(journalEntry{IDs: []gbkmv.Element{1 << 20}})))
	f.Add([]byte{frameIDs, 3, 1, 0, 2})
	f.Add([]byte{frameIDs, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{frameIDsRid, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := newFrameScanner(data, 0, "fuzz")
		entries, err := s.scanAll()
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); got > bound {
			t.Fatalf("scanning %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err == nil && s.Offset() > int64(len(data)) {
			t.Fatalf("%d entries to offset %d of %d bytes", len(entries), s.Offset(), len(data))
		}
		for _, e := range entries {
			if !slices.IsSorted(e.IDs) || len(slices.Compact(slices.Clone(e.IDs))) != len(e.IDs) {
				t.Fatalf("ids %v do not ascend", e.IDs)
			}
			back, err := newFrameScanner(frameOf(framePayload(e)), 0, "again").scanAll()
			if err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], e) {
				t.Fatalf("entry %+v came back as %+v, %v", e, back, err)
			}
		}

		load := func() *gbkmv.Vocabulary {
			v, err := gbkmv.LoadVocabulary(bytes.NewReader(vocab))
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		replayed, admitted := load(), load()
		var rs recordSlab
		runtime.ReadMemStats(&before)
		applied, applyErr := newFrameScanner(data, 0, "apply").scanRuns(func(f *frame) error {
			past := len(f.ids) > 0 && int(f.ids[len(f.ids)-1]) >= replayed.Len()
			err := rs.add(replayed, f)
			if past != (err != nil) {
				t.Fatalf("ids %v on a vocabulary of %d tokens: %v", f.ids, replayed.Len(), err)
			}
			return err
		}, func(int, int, string) {})
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); got > bound {
			t.Fatalf("applying %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		pending := newPendingVocab(admitted)
		admittedN, admitErr := newFrameScanner(data, 0, "admit").scanRuns(pending.admit, func(int, int, string) {})
		if applied != admittedN || (applyErr == nil) != (admitErr == nil) {
			t.Fatalf("replay applied %d frames (%v), a follower admitted %d (%v)", applied, applyErr, admittedN, admitErr)
		}
		if applyErr == nil && pending.len() != replayed.Len() {
			t.Fatalf("a follower expects %d tokens after the chunk, replay holds %d", pending.len(), replayed.Len())
		}

		framed, err := newFrameScanner(frameOf(data), 0, "framed").scanAll()
		if len(data) > 0 && (data[0] == '[' || data[0] == '{') != errors.Is(err, errJSONFrame) {
			t.Fatalf("payload %q: %v", data, err)
		}
		if err == nil && len(framed) != 1 {
			t.Fatalf("one intact frame scanned as %d entries", len(framed))
		}
	})
}

// FuzzDecodeMeta: arbitrary bytes as a commit record never panic, and one
// that decodes survives encode → decode unchanged.
func FuzzDecodeMeta(f *testing.F) {
	_, _, metaJSON := fuzzJournalSeeds(f)
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
