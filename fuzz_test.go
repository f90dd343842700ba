package gbkmv

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

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

// baselineNamed returns, for each baseline engine, the GB-KMV snapshot with
// its header naming that engine instead: the format and version this build
// writes, an engine it has no snapshot format for. Builds that served every
// engine wrote such headers; this one must name them as another format.
func baselineNamed(t testing.TB, snapshot []byte) map[string][]byte {
	t.Helper()
	header := append([]byte(engineMagic), snapfmt.Version, byte(len(DefaultEngine)))
	header = append(header, DefaultEngine...)
	if !bytes.HasPrefix(snapshot, header) {
		t.Fatalf("the snapshot opens with %q, not %q", snapshot[:len(header)], header)
	}
	out := make(map[string][]byte)
	for _, name := range Engines() {
		if name != DefaultEngine {
			named := append([]byte(engineMagic), snapfmt.Version, byte(len(name)))
			named = append(named, name...)
			out[name] = append(named, snapshot[len(header):]...)
		}
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
// padded (non-canonical) uvarint, a zero delta, a record length that overruns
// the section, a delta that wraps 2⁶⁴. The index keeps the section's bytes as
// its record store, so what the loader lets through it holds.
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
	// 2 records, 6 elements: 3 of them 1 +1 +1, 3 of them 2 +3 +4.
	section := []byte{2, 6, 3, 1, 1, 1, 3, 2, 3, 4}
	if n := bytes.Count(buf.Bytes(), section); n != 1 {
		t.Fatalf("the records section appears %d times in the snapshot; the fixture cannot aim", n)
	}
	wrap := append([]byte{2, 6, 3, 1, 1, 1, 3, 2, 3}, bytes.Repeat([]byte{0xff}, 9)...)
	out := make(map[string][]byte)
	for name, damaged := range map[string][]byte{
		"padded uvarint":  {2, 6, 3, 1, 0x81, 0x00, 1, 3, 2, 3, 4},
		"zero delta":      {2, 6, 3, 1, 1, 1, 3, 2, 0, 4},
		"length overruns": {2, 6, 3, 1, 1, 1, 4, 2, 3, 4},
		"delta wraps":     append(wrap, 0x01), // 5 + (2⁶⁴ − 1)
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
//     the input merely declares: the slabs cost at most 8 bytes per input
//     byte (one delta byte → one Element), slice headers push the worst case
//     to 32, and the fixed part is the 64 kB buffer;
//   - nor does the finish, which derives the sketch from what the stream half
//     read: r and the budget are declared and size nothing; counters, lists
//     and maps follow the records, occurrences and buffered elements that
//     were read (well under 256 bytes a byte in all), and the buffer arena is
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
	// The earlier format versions, the segmented container and the streams
	// naming a baseline engine: intact bytes this build must not parse.
	for v := byte(1); v < snapfmt.Version; v++ {
		old := bytes.Clone(snaps["gbkmv"])
		old[len(engineMagic)] = v
		f.Add(old)
	}
	f.Add(segmentedHeader)
	for _, b := range baselineNamed(f, snaps["gbkmv"]) {
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
		var finish func() (*Index, error)
		var ix *Index
		var err error
		n := uint64(len(data))
		if got, bound := allocated(func() { finish, err = loadEngineStaged(bytes.NewReader(data)) }), 1<<20+32*n; got > bound {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", n, got, bound)
		}
		if err != nil {
			return
		}
		got, bound := allocated(func() { ix, err = finish() }), 1<<20+256*n+n*n/12
		if err != nil {
			return
		}
		if got > bound {
			t.Fatalf("deriving an index from %d bytes allocated %d, bound %d", n, got, bound)
		}
		var saved bytes.Buffer
		if err := SaveEngine(&saved, ix); err != nil {
			t.Fatalf("a loaded engine does not save: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), data) {
			t.Fatalf("load → save changed the stream (%d bytes in, %d out)", len(data), saved.Len())
		}
	})
}

// TestFuzzSeedsLoad keeps the fuzz seeds honest: every real snapshot loads,
// every strict truncation of one is rejected, and the segmented container's
// header and a stream naming any engine but gbkmv are another format.
func TestFuzzSeedsLoad(t *testing.T) {
	snaps := fuzzSnapshots(t)
	if _, err := LoadEngine(bytes.NewReader(segmentedHeader)); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("a segmented container's header: LoadEngine = %v, want ErrSnapshotFormat", err)
	}
	named := baselineNamed(t, snaps["gbkmv"])
	if len(named) != 6 {
		t.Errorf("streams naming %d baselines, want the six", len(named))
	}
	for name, b := range named {
		if _, err := LoadEngine(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotFormat) || errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("a stream naming %s: LoadEngine = %v, want ErrSnapshotFormat", name, err)
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
