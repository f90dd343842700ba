package fsx

import (
	"io"
	iofs "io/fs"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// FaultFS wraps an FS with injectable disk faults. Faults are armed from the
// test goroutine and consumed by in-flight operations; every method is safe
// for concurrent use. Only files whose path contains Match (every file when
// Match is empty) are affected, and only when opened with write intent —
// read-side corruption is modeled by flipping bits on the write, which is
// where real silent corruption lands anyway.
//
// FaultFS also tracks, per written file, the size that is truly durable
// (synced to the base FS, excluding lying fsyncs). Crash truncates every
// tracked file back to its durable size — the state an abrupt power loss
// would leave behind.
type FaultFS struct {
	// Base performs the real operations; nil means Default.
	Base FS
	// Match selects the files faults apply to by substring of the path
	// (empty matches every file). Durability is tracked for all written
	// files regardless of Match.
	Match string

	mu         sync.Mutex
	failWrites int   // next n matching writes fail with writeErr, nothing written
	writeErr   error // defaults to EIO
	budgetOn   bool  // a write budget is armed
	budget     int64 // bytes matching writes may still consume while budgetOn
	tornWrites int   // next n matching writes persist half, then fail with EIO
	flipBits   int   // next n matching writes have one bit silently flipped
	failSyncs  int   // next n matching syncs fail with syncErr
	syncErr    error // defaults to EIO
	lyingSync  bool  // matching syncs report success without making data durable

	files    map[string]*fileState
	injected map[string]int64 // fault kind -> times injected
}

type fileState struct {
	size    int64 // bytes written through the wrapper
	durable int64 // bytes guaranteed to survive Crash
}

// FailWrites arms n one-shot write failures: the write returns err (EIO if
// nil) with nothing persisted.
func (f *FaultFS) FailWrites(n int, err error) {
	f.mu.Lock()
	f.failWrites, f.writeErr = n, err
	f.mu.Unlock()
}

// WriteBudget allows matching writes to consume n more bytes in total; the
// write that exceeds it persists the remaining budget and fails with ENOSPC,
// as does every write after it, until the budget is reset. Pass -1 to lift
// the limit (the initial state).
func (f *FaultFS) WriteBudget(n int64) {
	f.mu.Lock()
	f.budgetOn, f.budget = n >= 0, n
	f.mu.Unlock()
}

// TornWrites arms n torn writes: half the buffer is persisted, then the
// write fails with EIO — a write cut mid-flight by a crash or a bad sector.
func (f *FaultFS) TornWrites(n int) {
	f.mu.Lock()
	f.tornWrites = n
	f.mu.Unlock()
}

// FlipBits arms n silent corruptions: one bit of the written buffer is
// flipped and the write succeeds — firmware or cable corruption that no
// error path reports.
func (f *FaultFS) FlipBits(n int) {
	f.mu.Lock()
	f.flipBits = n
	f.mu.Unlock()
}

// FailSyncs arms n one-shot fsync failures with err (EIO if nil).
func (f *FaultFS) FailSyncs(n int, err error) {
	f.mu.Lock()
	f.failSyncs, f.syncErr = n, err
	f.mu.Unlock()
}

// LieOnSync makes matching fsyncs report success without making the data
// durable — the write-cache-without-battery disk. Visible only through
// Crash, exactly like the real thing.
func (f *FaultFS) LieOnSync(on bool) {
	f.mu.Lock()
	f.lyingSync = on
	f.mu.Unlock()
}

// Crash truncates every tracked file back to its durable size — the on-disk
// state an abrupt power loss would leave. Call it only after the store using
// this FS has been abandoned.
func (f *FaultFS) Crash() error {
	f.mu.Lock()
	type cut struct {
		path string
		size int64
	}
	var cuts []cut
	for path, st := range f.files {
		if st.size > st.durable {
			cuts = append(cuts, cut{path, st.durable})
			st.size = st.durable
		}
	}
	f.mu.Unlock()
	for _, c := range cuts {
		fl, err := f.base().OpenFile(c.path, syscall.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		terr := fl.Truncate(c.size)
		if cerr := fl.Close(); terr == nil {
			terr = cerr
		}
		if terr != nil {
			return terr
		}
	}
	return nil
}

// Injected reports how many faults of the given kind ("write", "enospc",
// "torn", "flip", "sync") were injected so far.
func (f *FaultFS) Injected(kind string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected[kind]
}

func (f *FaultFS) base() FS {
	if f.Base != nil {
		return f.Base
	}
	return Default
}

func (f *FaultFS) matches(name string) bool {
	return f.Match == "" || strings.Contains(filepath.Base(name), f.Match) ||
		strings.Contains(name, f.Match)
}

func (f *FaultFS) note(kind string) {
	if f.injected == nil {
		f.injected = make(map[string]int64)
	}
	f.injected[kind]++
}

func (f *FaultFS) state(name string) *fileState {
	if f.files == nil {
		f.files = make(map[string]*fileState)
	}
	st, ok := f.files[name]
	if !ok {
		st = &fileState{}
		if fi, err := f.base().Stat(name); err == nil {
			// Pre-existing bytes are assumed durable; only writes observed
			// through the wrapper are at risk.
			st.size, st.durable = fi.Size(), fi.Size()
		}
		f.files[name] = st
	}
	return st
}

const writeIntent = syscall.O_WRONLY | syscall.O_RDWR | syscall.O_CREAT |
	syscall.O_TRUNC | syscall.O_APPEND

// OpenFile implements FS.
func (f *FaultFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	if flag&writeIntent == 0 {
		return f.base().OpenFile(name, flag, perm)
	}
	fl, err := f.base().OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	st := f.state(name)
	if flag&syscall.O_TRUNC != 0 {
		st.size, st.durable = 0, 0
	}
	off := int64(0)
	if flag&syscall.O_APPEND != 0 {
		off = st.size
	}
	f.mu.Unlock()
	return &faultFile{fs: f, f: fl, name: name, off: off, appendMode: flag&syscall.O_APPEND != 0}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) { return f.base().Open(name) }

// Rename implements FS, carrying the durability tracking to the new path.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.base().Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if st, ok := f.files[oldpath]; ok {
		delete(f.files, oldpath)
		f.files[newpath] = st
	}
	f.mu.Unlock()
	return nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	delete(f.files, name)
	f.mu.Unlock()
	return f.base().Remove(name)
}

// RemoveAll implements FS.
func (f *FaultFS) RemoveAll(path string) error {
	f.mu.Lock()
	for p := range f.files {
		if p == path || strings.HasPrefix(p, path+string(filepath.Separator)) {
			delete(f.files, p)
		}
	}
	f.mu.Unlock()
	return f.base().RemoveAll(path)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(path string, perm iofs.FileMode) error {
	return f.base().MkdirAll(path, perm)
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(name string) ([]iofs.DirEntry, error) { return f.base().ReadDir(name) }

// ReadFile implements FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.base().ReadFile(name) }

// WriteFile implements FS, routed through OpenFile so faults apply.
func (f *FaultFS) WriteFile(name string, data []byte, perm iofs.FileMode) error {
	fl, err := f.OpenFile(name, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, werr := fl.Write(data)
	if cerr := fl.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// Stat implements FS.
func (f *FaultFS) Stat(name string) (iofs.FileInfo, error) { return f.base().Stat(name) }

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error { return f.base().SyncDir(dir) }

// faultFile wraps a base file, applying write/sync faults and maintaining
// the durable-size ledger.
type faultFile struct {
	fs         *FaultFS
	f          File
	name       string
	off        int64
	appendMode bool
}

func (w *faultFile) Name() string { return w.name }

func (w *faultFile) Read(p []byte) (int, error) {
	n, err := w.f.Read(p)
	w.fs.mu.Lock()
	w.off += int64(n)
	w.fs.mu.Unlock()
	return n, err
}

func (w *faultFile) Seek(offset int64, whence int) (int64, error) {
	n, err := w.f.Seek(offset, whence)
	if err == nil {
		w.fs.mu.Lock()
		w.off = n
		w.fs.mu.Unlock()
	}
	return n, err
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	st := w.fs.state(w.name)
	if w.appendMode {
		w.off = st.size
	}
	match := w.fs.matches(w.name)
	if match && w.fs.failWrites > 0 {
		w.fs.failWrites--
		w.fs.note("write")
		err := w.fs.writeErr
		w.fs.mu.Unlock()
		if err == nil {
			err = syscall.EIO
		}
		return 0, &iofs.PathError{Op: "write", Path: w.name, Err: err}
	}
	allow := len(p)
	var failErr error
	if match && w.fs.budgetOn {
		if int64(allow) > w.fs.budget {
			allow = int(w.fs.budget)
			failErr = &iofs.PathError{Op: "write", Path: w.name, Err: syscall.ENOSPC}
			w.fs.note("enospc")
		}
		w.fs.budget -= int64(allow)
	}
	if failErr == nil && match && w.fs.tornWrites > 0 {
		w.fs.tornWrites--
		w.fs.note("torn")
		allow = allow / 2
		failErr = &iofs.PathError{Op: "write", Path: w.name, Err: syscall.EIO}
	}
	flip := failErr == nil && match && w.fs.flipBits > 0
	if flip {
		w.fs.flipBits--
		w.fs.note("flip")
	}
	w.fs.mu.Unlock()

	buf := p[:allow]
	if flip && len(buf) > 0 {
		// Flip one bit in the middle of the buffer on a private copy — the
		// caller's slice must not be mutated.
		c := make([]byte, len(buf))
		copy(c, buf)
		c[len(c)/2] ^= 0x10
		buf = c
	}
	n, err := w.f.Write(buf)
	w.fs.mu.Lock()
	w.off += int64(n)
	if w.off > st.size {
		st.size = w.off
	}
	w.fs.mu.Unlock()
	if err == nil {
		err = failErr
	}
	return n, err
}

func (w *faultFile) Truncate(size int64) error {
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	w.fs.mu.Lock()
	st := w.fs.state(w.name)
	if size < st.size {
		st.size = size
	}
	if size < st.durable {
		st.durable = size
	}
	w.fs.mu.Unlock()
	return nil
}

func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	match := w.fs.matches(w.name)
	if match && w.fs.failSyncs > 0 {
		w.fs.failSyncs--
		w.fs.note("sync")
		err := w.fs.syncErr
		w.fs.mu.Unlock()
		if err == nil {
			err = syscall.EIO
		}
		return &iofs.PathError{Op: "sync", Path: w.name, Err: err}
	}
	lie := match && w.fs.lyingSync
	w.fs.mu.Unlock()
	if lie {
		// Report success; durable size is NOT advanced, so Crash drops the
		// data — exactly what a lying disk does.
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fs.mu.Lock()
	st := w.fs.state(w.name)
	if st.size > st.durable {
		st.durable = st.size
	}
	w.fs.mu.Unlock()
	return nil
}

func (w *faultFile) Close() error { return w.f.Close() }

func (w *faultFile) Stat() (iofs.FileInfo, error) { return w.f.Stat() }

var _ io.ReadWriteSeeker = (*faultFile)(nil)
