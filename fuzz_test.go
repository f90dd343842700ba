package gbkmv

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"gbkmv/internal/core"
	"gbkmv/internal/dataset"
	"gbkmv/internal/snapfmt"
)

// fuzzSnapshots returns real GB-KMV snapshots over a corpus small enough to
// keep the seeds short: one at half the occurrences' budget, and one with an
// r far past the vocabulary, which is what the budget is charged and sizes
// nothing, so it loads in the memory of the other.
func fuzzSnapshots(t testing.TB) map[string][]byte {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 12, Universe: 60, AlphaFreq: 1.1, AlphaSize: 2.5, MinSize: 3, MaxSize: 12,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for name, opt := range map[string]EngineOptions{
		"gbkmv":      {BudgetFraction: 0.5, Seed: 9},
		"gbkmv/wide": {BudgetUnits: 1 << 30, BufferBits: 1 << 28, Seed: 9},
	} {
		e, err := NewEngine("gbkmv", d.Records, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveEngine(&buf, e); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// containerHeader opens the format-5 engine container: "GBKMVENG", format
// version 5 and the engine's registry name, gbkmv. Until the snapshot became
// the index stream alone, every snapshot opened with such a header, the
// index stream after it.
var containerHeader = []byte("GBKMVENG\x05\x05gbkmv")

// engineContainer returns the format-5 engine container the builds before
// that wrote: TestSnapshotGoldenBytes' collection, 163 bytes, its index
// stream the 148 this build writes. Intact bytes of another format.
func engineContainer(t testing.TB) []byte {
	t.Helper()
	b := hexFixture(t, "testdata/snapshot_format5_container.hex")
	if !bytes.HasPrefix(b, containerHeader) {
		t.Fatalf("the container opens with %q, not %q", b[:len(containerHeader)], containerHeader)
	}
	return b
}

// baselineNamed returns, for each baseline engine, the engine container with
// its header naming that engine instead. Builds that served every engine
// wrote such headers; this one must name them as another format.
func baselineNamed(t testing.TB) map[string][]byte {
	t.Helper()
	index := engineContainer(t)[len(containerHeader):]
	out := make(map[string][]byte)
	for _, name := range Engines() {
		if name != DefaultEngine {
			named := append([]byte("GBKMVENG\x05"), byte(len(name)))
			named = append(named, name...)
			out[name] = append(named, index...)
		}
	}
	return out
}

// earlierVersions returns stream under each format version before this
// build's: the version byte follows the 8-byte magic in every stream.
func earlierVersions(stream []byte) [][]byte {
	var out [][]byte
	for v := byte(1); v < snapfmt.Version; v++ {
		old := bytes.Clone(stream)
		old[8] = v
		out = append(out, old)
	}
	return out
}

// segmentedHeader opens a segmented container ("GBKMVSEG", the format version,
// its flags byte, the inner engine's name), the stream the builds before one
// index per collection wrote: intact bytes this build must name as another
// format.
var segmentedHeader = append([]byte("GBKMVSEG"), snapfmt.Version, 1, 5, 'g', 'b', 'k', 'm', 'v')

// damagedRecordSections returns a real gbkmv snapshot with its records
// section replaced by ones that break the record coding, each in one way: a
// padded (non-canonical) record length, a zero gap, a record length that
// overruns the section, a gap that wraps 2⁶⁴, a class above 64, padding bits
// set. The index keeps the section's bytes as its record store, so what the
// loader lets through it holds.
func damagedRecordSections(t testing.TB) map[string][]byte {
	t.Helper()
	e, err := NewEngine("gbkmv", []Record{{1, 2, 3}, {2, 5, 9}}, EngineOptions{BudgetUnits: 100, BufferBits: NoBuffer, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, e); err != nil {
		t.Fatal(err)
	}
	// 2 records, 6 elements: 3 of them, gaps 1 1 1 (three class-1 nibbles),
	// and 3 of them, gaps 2 3 4 (classes 2, 2 and 3 and the bits below
	// their leading 1s).
	section := []byte{2, 6, 3, 0x11, 0x01, 3, 0x42, 0x0e}
	if n := bytes.Count(buf.Bytes(), section); n != 1 {
		t.Fatalf("the records section appears %d times in the snapshot; the fixture cannot aim", n)
	}
	out := make(map[string][]byte)
	for name, damaged := range map[string][]byte{
		"padded length":   {2, 6, 0x83, 0x00, 0x11, 0x01, 3, 0x42, 0x0e},
		"zero gap":        {2, 6, 3, 0x11, 0x01, 3, 0x42, 0x02},                                                       // 2 5 5
		"length overruns": {2, 6, 3, 0x11, 0x01, 4, 0x42, 0x0e},                                                       // 3 + 4 of 6
		"gap wraps":       {2, 6, 3, 0x11, 0x01, 3, 0x42, 0x7e, 0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x07}, // 2 5 4
		"class above 64":  {2, 4, 3, 0x11, 0x01, 1, 0x2f, 0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"padding set":     {2, 6, 3, 0x11, 0x81, 3, 0x42, 0x0e},
	} {
		out[name] = bytes.Replace(buf.Bytes(), section, damaged, 1)
	}
	return out
}

// FuzzLoadEngine feeds the snapshot decoder arbitrary bytes. Whatever they
// are:
//
//   - nothing panics, in the stream half or in the finish;
//   - the stream half allocates in proportion to the input, never to a count
//     the input merely declares: the records stay the bytes they are, in a
//     store that grows a chunk at a time as they arrive, E_H costs at most 8
//     bytes per input byte (one uvarint byte → one Element), slice headers
//     push the worst case to 32, and the fixed part is the 64 kB buffer;
//   - nor does the finish, which derives the sketch from what the stream half
//     read: r and the budget are declared and size nothing; counters, lists
//     and maps follow the records, occurrences (a byte of records holds two
//     at most) and buffered elements that were read (well under 256 bytes a
//     byte in all), and the buffer arena is
//     records × ⌈|E_H|/8⌉ bytes — two counts the input backs, n²/32 bytes
//     from n of them at the very worst — with its transpose, the bit columns,
//     an eighth of headroom wider. Every stream that loads is a GB-KMV one,
//     so the bound holds for all of them;
//   - a stream that loads is canonical: saving the loaded engine reproduces
//     the input byte for byte.
func FuzzLoadEngine(f *testing.F) {
	snaps := fuzzSnapshots(f)
	for _, b := range snaps {
		f.Add(b)
	}
	// A stream without a stored sketch is short: cut points every 8 bytes
	// keep several inside every section.
	f.Add([]byte{})
	for _, name := range []string{"gbkmv", "gbkmv/wide"} {
		for n := 8; n < len(snaps[name]); n += 8 {
			f.Add(snaps[name][:n])
		}
	}
	// Sections that break the record coding: the store must not take them.
	for _, b := range damagedRecordSections(f) {
		f.Add(b)
	}
	// Intact bytes this build must not parse: the format-5 engine container
	// and the containers naming a baseline engine, this build's snapshot and
	// the container under each earlier version byte, a real format-4
	// snapshot (records coded one uvarint a gap) and the segmented
	// container.
	for _, b := range oldFormatSeeds(f, snaps["gbkmv"]) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		allocated := func(fn func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		var finish func() (*core.Index, error)
		var inner *core.Index
		var err error
		n := uint64(len(data))
		if got, bound := allocated(func() { finish, err = core.LoadStaged(bytes.NewReader(data)) }), 1<<20+32*n; got > bound {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", n, got, bound)
		}
		if err != nil {
			return
		}
		got, bound := allocated(func() { inner, err = finish() }), 1<<20+256*n+n*n/12
		if err != nil {
			return
		}
		if got > bound {
			t.Fatalf("deriving an index from %d bytes allocated %d, bound %d", n, got, bound)
		}
		var saved bytes.Buffer
		if err := SaveEngine(&saved, &Index{inner: inner}); err != nil {
			t.Fatalf("a loaded engine does not save: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), data) {
			t.Fatalf("load → save changed the stream (%d bytes in, %d out)", len(data), saved.Len())
		}
	})
}

// oldFormatSeeds returns the streams of an earlier format, by name, that a
// loader must refuse as ErrSnapshotFormat, never as corrupt: snapshot is this
// build's, and is put under each earlier version byte; everything else is
// fixed bytes.
func oldFormatSeeds(t testing.TB, snapshot []byte) map[string][]byte {
	t.Helper()
	container := engineContainer(t)
	out := map[string][]byte{
		"engine container": container,
		"format 4":         hexFixture(t, "testdata/snapshot_format4.hex"),
		"segmented":        segmentedHeader,
	}
	for name, b := range baselineNamed(t) {
		out["container naming "+name] = b
	}
	for i, b := range earlierVersions(snapshot) {
		out[fmt.Sprintf("index stream v%d", i+1)] = b
	}
	for i, b := range earlierVersions(container) {
		out[fmt.Sprintf("container v%d", i+1)] = b
	}
	return out
}

// hexFixture returns the bytes a hex file under testdata spells.
func hexFixture(t testing.TB, file string) []byte {
	t.Helper()
	text, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFuzzSeedsLoad keeps the fuzz seeds honest: every real snapshot loads,
// every strict truncation of one is rejected, a damaged records section is
// corrupt, and every stream an earlier build wrote — the engine container,
// the containers naming a baseline, each earlier version, the segmented
// container — is another format.
func TestFuzzSeedsLoad(t *testing.T) {
	snaps := fuzzSnapshots(t)
	old := oldFormatSeeds(t, snaps["gbkmv"])
	if len(old) != 3+6+4+4 {
		t.Errorf("%d streams of an earlier format, want 17", len(old))
	}
	for name, b := range old {
		if _, err := LoadEngine(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotFormat) || errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("%s: LoadEngine = %v, want ErrSnapshotFormat", name, err)
		}
	}
	for name, b := range damagedRecordSections(t) {
		if _, err := LoadEngine(bytes.NewReader(b)); !errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("records section with a %s: LoadEngine = %v, want a corrupt-snapshot error", name, err)
		}
	}
	for name, b := range snaps {
		if _, err := LoadEngine(bytes.NewReader(b)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for n := 0; n < len(b); n += 7 {
			if _, err := LoadEngine(bytes.NewReader(b[:n])); err == nil {
				t.Errorf("%s truncated to %d of %d bytes loaded", name, n, len(b))
			}
		}
	}
}
