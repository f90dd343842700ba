package server

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"testing"

	"gbkmv/internal/fsx"
)

// TestSweepInvariant pins the stale-generation sweep's contract: only
// generations strictly older than the committed one are removed, and even
// then the committed record's Parent is retained as the fallback target.
// Directories (quarantine-<gen>/ above all), the commit records, and
// anything newer than the committed generation are never touched.
func TestSweepInvariant(t *testing.T) {
	dir := t.TempDir()
	touch := func(name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Generations 1 (stale), 2 (parent), 3 (committed), 4 (in-flight
	// snapshot attempt), plus a quarantined generation and both commit
	// records.
	for _, gen := range []string{"1", "2", "3", "4"} {
		touch("index-" + gen + ".snap")
		touch("vocab-" + gen + ".snap")
		touch("journal-" + gen + ".log")
	}
	touch("meta.json")
	touch("meta-prev.json")
	touch("meta.json.tmp") // orphaned commit attempt: swept
	touch("unrelated.txt") // not ours: kept
	qdir := filepath.Join(dir, "quarantine-2")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(qdir, "index-2.snap"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	sweepStaleGenerations(fsx.Default, dir, meta{Generation: 3, Parent: 2})

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(got)
	want := []string{
		"index-2.snap", "index-3.snap", "index-4.snap",
		"journal-2.log", "journal-3.log", "journal-4.log",
		"meta-prev.json", "meta.json",
		"quarantine-2", "unrelated.txt",
		"vocab-2.snap", "vocab-3.snap", "vocab-4.snap",
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("after sweep:\n got  %v\n want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after sweep:\n got  %v\n want %v", got, want)
		}
	}
	if _, err := os.Stat(filepath.Join(qdir, "index-2.snap")); err != nil {
		t.Fatalf("sweep reached inside the quarantine directory: %v", err)
	}
}

// TestIsDegradingDiskErr pins which error classes flip read-only mode:
// disk-health errors do, everything else (injected test errors, closed
// files) fails the operation without degrading the node.
func TestIsDegradingDiskErr(t *testing.T) {
	for _, err := range []error{syscall.ENOSPC, syscall.EDQUOT, syscall.EIO, syscall.EROFS} {
		if !isDegradingDiskErr(err) {
			t.Errorf("%v must degrade", err)
		}
	}
	if isDegradingDiskErr(os.ErrClosed) || isDegradingDiskErr(nil) {
		t.Error("non-disk errors must not degrade")
	}
}

// TestVerifySnapshotFiles exercises the transfer-time verification point in
// isolation: matching files pass, a flipped byte or a generation mismatch
// fails.
func TestVerifySnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	isum, err := writeFileSync(fsx.Default, indexPath(dir, 7), func(w io.Writer) error {
		_, err := w.Write([]byte("index bytes"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	vsum, err := writeFileSync(fsx.Default, vocabPath(dir, 7), func(w io.Writer) error {
		_, err := w.Write([]byte("vocab bytes"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	mb := []byte(fmt.Sprintf(`{"generation": 7, "checksums": {"index": {"size": %d, "crc64": %q}, "vocab": {"size": %d, "crc64": %q}}}`,
		isum.Size, isum.CRC64, vsum.Size, vsum.CRC64))
	if err := VerifySnapshotFiles(fsx.Default, dir, 7, mb); err != nil {
		t.Fatalf("intact transfer must verify: %v", err)
	}
	if err := VerifySnapshotFiles(fsx.Default, dir, 8, mb); err == nil {
		t.Fatal("generation mismatch must fail")
	}
	flipByte(t, vocabPath(dir, 7))
	if err := VerifySnapshotFiles(fsx.Default, dir, 7, mb); err == nil {
		t.Fatal("flipped byte must fail verification")
	}
}
