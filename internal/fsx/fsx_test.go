package fsx

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func writeAll(t *testing.T, f File, p []byte) error {
	t.Helper()
	_, err := f.Write(p)
	return err
}

func TestFaultFSWriteBudgetENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	ffs.WriteBudget(10)
	path := filepath.Join(dir, "a.log")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(t, f, []byte("0123456")); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	err = writeAll(t, f, []byte("89abcdef"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	// Sticky until reset: even a tiny write fails.
	if err := writeAll(t, f, []byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want sticky ENOSPC, got %v", err)
	}
	ffs.WriteBudget(-1)
	if err := writeAll(t, f, []byte("y")); err != nil {
		t.Fatalf("write after budget lifted: %v", err)
	}
	f.Close()
	if got := ffs.Injected("enospc"); got < 2 {
		t.Fatalf("enospc injections = %d, want >= 2", got)
	}
	// The over-budget write persisted its allowed prefix (partial write).
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "0123456" + "89a" + "y"; string(b) != want {
		t.Fatalf("on-disk bytes = %q, want %q", b, want)
	}
}

func TestFaultFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	ffs.TornWrites(1)
	path := filepath.Join(dir, "a.log")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(t, f, []byte("01234567")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	f.Close()
	b, _ := os.ReadFile(path)
	if string(b) != "0123" {
		t.Fatalf("torn write persisted %q, want half", b)
	}
}

func TestFaultFSFlipBitsSilently(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{Match: "b.snap"}
	ffs.FlipBits(1)
	path := filepath.Join(dir, "b.snap")
	orig := bytes.Repeat([]byte{0xAA}, 32)
	if err := ffs.WriteFile(path, orig, 0o644); err != nil {
		t.Fatalf("flip write must report success, got %v", err)
	}
	got, _ := os.ReadFile(path)
	if bytes.Equal(got, orig) {
		t.Fatal("bit flip did not corrupt the file")
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d corrupted bytes, want exactly 1", diff)
	}
	// The caller's buffer must be untouched.
	if !bytes.Equal(orig, bytes.Repeat([]byte{0xAA}, 32)) {
		t.Fatal("caller's buffer was mutated")
	}
	// Non-matching files unaffected.
	other := filepath.Join(dir, "c.snap")
	ffs.FlipBits(1)
	if err := ffs.WriteFile(other, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(other)
	if !bytes.Equal(got, orig) {
		t.Fatal("fault leaked onto non-matching file")
	}
}

func TestFaultFSLyingSyncAndCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	path := filepath.Join(dir, "a.log")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(t, f, []byte("durable!")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	ffs.LieOnSync(true)
	if err := writeAll(t, f, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("lying sync must report success, got %v", err)
	}
	f.Close()
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "durable!" {
		t.Fatalf("after crash: %q, want only the honestly-synced prefix", b)
	}
}

func TestFaultFSCrashDropsUnsynced(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	path := filepath.Join(dir, "a.log")
	f, _ := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	writeAll(t, f, []byte("synced"))
	f.Sync()
	writeAll(t, f, []byte("-tail"))
	f.Close() // close without sync
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "synced" {
		t.Fatalf("after crash: %q, want %q", b, "synced")
	}
}

func TestFaultFSRenameCarriesDurability(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	tmp := filepath.Join(dir, "meta.json.tmp")
	final := filepath.Join(dir, "meta.json")
	f, _ := ffs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY, 0o644)
	writeAll(t, f, []byte("{}"))
	f.Sync()
	f.Close()
	if err := ffs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(final)
	if string(b) != "{}" {
		t.Fatalf("renamed file lost its durable bytes: %q", b)
	}
}

func TestFaultFSFailWritesAndOpens(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	path := filepath.Join(dir, "a.log")
	ffs.FailWrites(1, nil)
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(t, f, []byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	if err := writeAll(t, f, []byte("x")); err != nil {
		t.Fatalf("one-shot fault must clear: %v", err)
	}
	f.Close()

	// Opens are never faulted, for writing or for reading.
	ffs.FailWrites(1, nil)
	if g, err := ffs.OpenFile(path, os.O_WRONLY, 0o644); err != nil {
		t.Fatalf("write open: %v", err)
	} else {
		g.Close()
	}
	if g, err := ffs.Open(path); err != nil {
		t.Fatalf("read open: %v", err)
	} else {
		g.Close()
	}
}
