package server

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gbkmv/internal/fsx"
)

func writeEntries(t *testing.T, path string, entries [][]string) {
	t.Helper()
	jw, err := openJournalWriter(fsx.Default, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := jw.AppendBatch([][]string{e}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

// tokensOf projects replayed entries onto their token arrays.
func tokensOf(entries []journalEntry) [][]string {
	out := make([][]string, len(entries))
	for i, e := range entries {
		out[i] = e.Tokens
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	want := [][]string{
		{"five", "guys", "burgers"},
		{"binary\x00safe", "snow☃man", ""},
		{"solo"},
	}
	writeEntries(t, path, want)
	got, n, err := replayJournal(fsx.Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tokensOf(got), want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	fi, _ := os.Stat(path)
	if n != fi.Size() {
		t.Fatalf("validLen = %d, file size %d", n, fi.Size())
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	got, n, err := replayJournal(fsx.Default, filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || n != 0 || len(got) != 0 {
		t.Fatalf("missing journal: entries=%v len=%d err=%v", got, n, err)
	}
}

// TestJournalTornTail simulates a crash mid-append: the truncated final
// entry is dropped, the intact prefix survives, and reopening for append
// truncates the torn bytes before writing more.
func TestJournalTornTail(t *testing.T) {
	for _, cut := range []int64{1, 4, 9, 11, 13} { // into header and into payload
		path := filepath.Join(t.TempDir(), "journal.log")
		writeEntries(t, path, [][]string{{"a", "b"}, {"c"}})
		_, good, err := replayJournal(fsx.Default, path)
		if err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(path)
		full := fi.Size()
		// Re-append a third entry, then tear it `cut` bytes after the
		// intact prefix.
		jw, err := openJournalWriter(fsx.Default, path, full)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw.AppendBatch([][]string{{"torn", "entry"}}, ""); err != nil {
			t.Fatal(err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, full+cut); err != nil {
			t.Fatal(err)
		}
		entries, validLen, err := replayJournal(fsx.Default, path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if want := [][]string{{"a", "b"}, {"c"}}; !reflect.DeepEqual(tokensOf(entries), want) {
			t.Fatalf("cut %d: replay = %v, want %v", cut, entries, want)
		}
		if validLen != full || validLen != good+(full-good) {
			t.Fatalf("cut %d: validLen = %d, want %d", cut, validLen, full)
		}
		// Recovery: reopen at validLen and append; the journal is whole again.
		jw, err = openJournalWriter(fsx.Default, path, validLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := jw.AppendBatch([][]string{{"recovered"}}, ""); err != nil {
			t.Fatal(err)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		entries, _, err = replayJournal(fsx.Default, path)
		if err != nil {
			t.Fatal(err)
		}
		if want := [][]string{{"a", "b"}, {"c"}, {"recovered"}}; !reflect.DeepEqual(tokensOf(entries), want) {
			t.Fatalf("cut %d: after recovery = %v, want %v", cut, entries, want)
		}
	}
}

// TestJournalInteriorCorruption asserts that a bad CRC followed by more data
// is a hard error, not a silent truncation.
func TestJournalInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	writeEntries(t, path, [][]string{{"aaaa"}, {"bbbb"}})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[14] ^= 0xff // flip a byte inside the first entry's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayJournal(fsx.Default, path); err == nil {
		t.Fatal("interior corruption went undetected")
	}
}

// TestJournalTailCorruption: a bad CRC on the *final* entry is treated like
// a torn write and truncated away.
func TestJournalTailCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	writeEntries(t, path, [][]string{{"aaaa"}, {"bbbb"}})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, _, err := replayJournal(fsx.Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"aaaa"}}; !reflect.DeepEqual(tokensOf(entries), want) {
		t.Fatalf("replay = %v, want %v", entries, want)
	}
}

// TestJournalOverrunningLengthAtTail: a valid header whose length overruns
// the file is a torn write of a large entry — truncated, not an error.
func TestJournalOverrunningLengthAtTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	writeEntries(t, path, [][]string{{"good"}})
	_, good, err := replayJournal(fsx.Default, path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], 1<<20) // entry larger than the file
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(hdr[0:4]))
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	entries, validLen, err := replayJournal(fsx.Default, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || validLen != good {
		t.Fatalf("entries=%v validLen=%d, want 1 entry at %d", entries, validLen, good)
	}
}

// TestJournalCorruptLength: a complete header whose length checksum does
// not match is corruption, not a torn tail — truncating on it would
// silently drop every entry after the flipped bit.
func TestJournalCorruptLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	writeEntries(t, path, [][]string{{"aaaa"}, {"bbbb"}})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff // flip a bit in the first entry's length field
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayJournal(fsx.Default, path); err == nil {
		t.Fatal("corrupt length field went undetected")
	}
}
