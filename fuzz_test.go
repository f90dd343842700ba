package gbkmv

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"gbkmv/internal/dataset"
	"gbkmv/internal/snapfmt"
)

// fuzzSnapshots returns real snapshots of every registered engine at 1 and
// 2 segments over a corpus small enough to keep the seeds short.
func fuzzSnapshots(t testing.TB) map[string][]byte {
	t.Helper()
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 12, Universe: 60, AlphaFreq: 1.1, AlphaSize: 2.5, MinSize: 3, MaxSize: 12,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range Engines() {
		for _, segments := range []int{1, 2} {
			seg, err := NewSegmented(name, segments, d.Records, EngineOptions{BudgetFraction: 0.5, NumHashes: 16, MaxBands: 4, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveEngine(&buf, seg); err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/seg%d", name, segments)] = buf.Bytes()
		}
	}
	// An r far past the vocabulary: it is what the budget is charged and sizes
	// nothing, so this seed loads in the memory of the ones above.
	wide, err := NewEngine("gbkmv", d.Records, EngineOptions{BudgetUnits: 1 << 30, BufferBits: 1 << 28, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, wide); err != nil {
		t.Fatal(err)
	}
	out["gbkmv/wide"] = buf.Bytes()
	return out
}

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
//     byte (one delta byte → one Element), slice headers and routing entries
//     push the worst case to 32, and the fixed part is the 64 kB buffer plus
//     at most 4096 segment shells;
//   - nor does the finish of a gbkmv or gkmv stream, which derives the sketch
//     from what the stream half read: r and the budget are declared and size
//     nothing; counters, lists and maps follow the records, occurrences and
//     buffered elements that were read (well under 256 bytes a byte in all),
//     and the buffer arena is records × ⌈|E_H|/64⌉ words — two counts the
//     input backs, n²/32 bytes from n of them at the very worst — with its
//     transpose, the bit columns, an eighth of headroom wider. (The other
//     engines rebuild at whatever size their options name; not bounded here.)
//   - a stream that loads is canonical: saving the loaded engine reproduces
//     the input byte for byte. The kmv and minhash engines resolve their
//     derived parameters (k, budget) into the options they save, so for them
//     a hand-made stream with unresolved options only has to reach that
//     fixpoint on its second generation.
func FuzzLoadEngine(f *testing.F) {
	snaps := fuzzSnapshots(f)
	for _, b := range snaps {
		f.Add(b)
	}
	// A stream without a stored sketch is a third shorter than it was: cut
	// points every 32 bytes keep one or more inside every section.
	short := snaps["gbkmv/seg2"]
	for n := 0; n < len(short); n += 32 {
		f.Add(short[:n])
	}
	// Sections that break the record coding: the store must not take them.
	for _, b := range damagedRecordSections(f) {
		f.Add(b)
	}
	// The earlier format versions: intact bytes this build must not parse.
	for v := byte(1); v < snapfmt.Version; v++ {
		old := bytes.Clone(snaps["gbkmv/seg1"])
		old[len(segmentedMagic)] = v
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		allocated := func(fn func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		var finish func() (Engine, error)
		var e Engine
		var err error
		n := uint64(len(data))
		if got, bound := allocated(func() { finish, err = loadEngineStaged(bytes.NewReader(data)) }), 1<<20+32*n; got > bound {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", n, got, bound)
		}
		if err != nil {
			return
		}
		got, bound := allocated(func() { e, err = finish() }), 1<<20+256*n+n*n/12
		if err != nil {
			return
		}
		if name := e.EngineName(); (name == "gbkmv" || name == "gkmv") && got > bound {
			t.Fatalf("deriving a %s engine from %d bytes allocated %d, bound %d", name, n, got, bound)
		}
		resave := func(e Engine) []byte {
			var buf bytes.Buffer
			if err := SaveEngine(&buf, e); err != nil {
				t.Fatalf("a loaded engine does not save: %v", err)
			}
			return buf.Bytes()
		}
		saved := resave(e)
		if name := e.EngineName(); name == "kmv" || name == "minhash" {
			e2, err := LoadEngine(bytes.NewReader(saved))
			if err != nil {
				t.Fatalf("a saved engine does not load: %v", err)
			}
			data, saved = saved, resave(e2)
		}
		if !bytes.Equal(saved, data) {
			t.Fatalf("load → save changed the stream (%d bytes in, %d out)", len(data), len(saved))
		}
	})
}

// TestFuzzSeedsLoad keeps the fuzz seeds honest: every real snapshot loads,
// every strict truncation of one is rejected, and so is a container with a
// flag bit no writer sets (it would load and re-save as different bytes).
func TestFuzzSeedsLoad(t *testing.T) {
	snaps := fuzzSnapshots(t)
	flagged := bytes.Clone(snaps["exact/seg2"])
	flagged[len(segmentedMagic)+1] |= 0x80
	if _, err := LoadEngine(bytes.NewReader(flagged)); err == nil {
		t.Error("a container with unknown flag bits loaded")
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
