// Package server implements gbkmvd, an HTTP daemon serving containment
// similarity search over multiple named GB-KMV collections. A Store holds
// the collections behind per-collection RW locks (searches run concurrently,
// inserts are serialized), snapshots them to a data directory with the
// library's Save/Load, and journals dynamic inserts to an append-only log so
// they survive restarts without a full snapshot per insert.
package server

import (
	"bufio"
	"errors"
	"io"
	"os"
	"sync/atomic"

	"gbkmv/internal/fsx"
)

// The journal is a flat file of length-prefixed entries (the siser idiom:
// frame first, payload format second), one per dynamically inserted record:
//
//	uint32 big-endian payload length
//	uint32 big-endian IEEE CRC32 of the 4 length bytes
//	uint32 big-endian IEEE CRC32 of the payload
//	payload: the record, coded against the vocabulary (spans.go): a format
//	         byte, the client's request id if the insert carried one, the ids
//	         of the tokens the vocabulary held, the bytes of the others
//
// Framing makes replay trivially resumable: a torn tail write (crash mid
// append) is detected by a short read or a payload-CRC mismatch on the
// final entry, and recovery simply truncates the file back to the last
// intact entry. The length has its own CRC so that a corrupted length field
// — which would otherwise be indistinguishable from a torn tail and would
// silently truncate every later entry — is a hard error instead.
//
// The request id is echoed into every frame of its batch so that replay can
// rebuild the duplicate-detection window (see wal.insert): after the
// WAL-ambiguity crash — journal fsynced, response lost — the client's retry
// is recognized from the replayed frames and rejected instead of silently
// doubling the records.

const journalMaxEntry = 64 << 20 // sanity bound on one entry's payload

// errEntryTooLarge marks a record the journal refuses by policy — a client
// mistake, not a storage failure.
var errEntryTooLarge = errors.New("journal entry too large")

// journalWriter appends entries to an open journal file. Appends go through
// a buffered writer; durability is split into Flush (buffer → file) and
// SyncFile (fsync) so that the group-commit protocol can append under the
// collection's I/O lock while the expensive fsync runs outside it, shared
// by every batch of a commit group (see wal.insert).
type journalWriter struct {
	f   fsx.File
	buf *bufio.Writer
	off int64 // logical size: file bytes plus buffered bytes

	flushed int64 // bytes handed to the OS (Flush high-water mark)

	// synced is the durable high-water mark (bytes made durable by
	// SyncFile). Atomic because it is read lock-free by observers that
	// hold neither commit lock: Stats under ioMu only, and the wal-stream
	// status snapshot, both racing the commit leader's post-fsync update.
	synced atomic.Int64

	// syncHook and writeHook, when set, replace the fsync / precede the
	// frame write — fault injection for the group-commit failure tests.
	syncHook  func() error
	writeHook func() error
}

// openJournalWriter opens (creating if needed) the journal at path for
// appending, truncating it first to validLen to drop any torn tail entry
// found during replay. The file goes through fsys so disk-chaos tests can
// inject write and fsync faults.
func openJournalWriter(fsys fsx.FS, path string, validLen int64) (*journalWriter, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	j := &journalWriter{f: f, buf: bufio.NewWriter(f), off: validLen, flushed: validLen}
	j.synced.Store(validLen)
	return j, nil
}

// appendFrames buffers a pre-encoded frame stream as one write. A frame
// stream is all-or-nothing from the encoder's side; only an actual I/O
// failure — which poisons the buffered writer and therefore everything
// appended after it — can leave a partial batch behind, and the
// group-commit flush surfaces and rolls that back.
func (j *journalWriter) appendFrames(frames []byte) error {
	if j.writeHook != nil {
		if err := j.writeHook(); err != nil {
			return err
		}
	}
	if _, err := j.buf.Write(frames); err != nil {
		return err
	}
	j.off += int64(len(frames))
	return nil
}

// Offset returns the journal's logical size (including buffered entries);
// pair with Rollback to undo a failed batch.
func (j *journalWriter) Offset() int64 { return j.off }

// Rollback discards unflushed entries and truncates the file back to off,
// restoring the journal to the state Offset reported before a failed batch
// so that on-disk entries never outrun the acknowledged index state.
func (j *journalWriter) Rollback(off int64) error {
	j.buf.Reset(j.f)
	size, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if size > off {
		if err := j.f.Truncate(off); err != nil {
			return err
		}
		if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
			return err
		}
	}
	j.off = off
	j.flushed = off
	if j.synced.Load() > off {
		j.synced.Store(off)
	}
	return nil
}

// Flush hands every buffered frame to the OS (no fsync) and records the
// flush high-water mark a subsequent SyncFile covers. Resetting the buffer
// also clears a poisoned (sticky-error) state left by a failed spill, so a
// Rollback + Flush sequence heals the writer. Callers serialize Flush with
// appends (the collection's ioMu).
func (j *journalWriter) Flush() error {
	if err := j.buf.Flush(); err != nil {
		return err
	}
	j.flushed = j.off
	return nil
}

// SyncFile fsyncs the file, making every previously flushed frame durable.
// Unlike Flush it may run concurrently with appends (they only touch the
// buffer); frames appended mid-fsync are simply not covered. Callers
// serialize SyncFile calls with each other (the commit leader lock).
func (j *journalWriter) SyncFile() error {
	covered := j.flushed
	sync := j.f.Sync
	if j.syncHook != nil {
		sync = j.syncHook
	}
	if err := sync(); err != nil {
		return err
	}
	if covered > j.synced.Load() {
		j.synced.Store(covered)
	}
	return nil
}

// SyncedOffset returns the durable high-water mark: every byte below it has
// been fsynced. It is the rollback target after a failed group commit —
// everything above it is unacknowledged by construction.
func (j *journalWriter) SyncedOffset() int64 { return j.synced.Load() }

// Close flushes and closes the journal.
func (j *journalWriter) Close() error {
	flushErr := j.buf.Flush()
	closeErr := j.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// scanJournal runs the journal file at path through journalScanner.scanRuns
// (see there for each and run) and returns the records it holds and the byte
// offset up to which it is valid. A missing file is an empty journal. A torn
// or corrupt tail entry ends the scan at the last intact offset; corruption
// before the end of the file is an error, since silently dropping interior
// records would be data loss.
func scanJournal(fsys fsx.FS, path string, each func(f *frame) error, run func(from, to int, rid string)) (records int, validLen int64, err error) {
	f, err := fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	s := newJournalScanner(f, 0, fi.Size(), path)
	records, err = s.scanRuns(each, run)
	return records, s.Offset(), err
}
