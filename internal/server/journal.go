// Package server implements gbkmvd, an HTTP daemon serving containment
// similarity search over multiple named GB-KMV collections. A Store holds
// the collections behind per-collection RW locks (searches run concurrently,
// inserts are serialized), snapshots them to a data directory with the
// library's Save/Load, and journals dynamic inserts to an append-only log so
// they survive restarts without a full snapshot per insert.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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
//	payload: JSON array of the record's tokens, or — when the insert carried
//	         a client request id — a JSON object {"rid": ..., "tokens": [...]}
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
// doubling the records. Plain arrays keep id-less inserts (and all journals
// written before request ids existed) byte-compatible.

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

// journalEntry is one replayed insert: its tokens and, when the insert
// carried one, the client request id of its batch.
type journalEntry struct {
	Tokens    []string
	RequestID string
}

// framedEntry is the object payload used when a request id must be echoed.
type framedEntry struct {
	RequestID string   `json:"rid"`
	Tokens    []string `json:"tokens"`
}

// marshalFrame encodes one record's frame (12-byte header + payload) into
// dst, echoing requestID (when non-empty) into the payload.
func marshalFrame(dst []byte, tokens []string, requestID string) ([]byte, error) {
	var payload []byte
	var err error
	if requestID == "" {
		payload, err = json.Marshal(tokens)
	} else {
		payload, err = json.Marshal(framedEntry{RequestID: requestID, Tokens: tokens})
	}
	if err != nil {
		return dst, err
	}
	if len(payload) > journalMaxEntry {
		// Replay hard-errors on oversized entries; writing one would make
		// the collection unloadable, so refuse the insert instead.
		return dst, fmt.Errorf("%w: record of %d bytes exceeds the limit (%d)", errEntryTooLarge, len(payload), journalMaxEntry)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(hdr[0:4]))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return dst, nil
}

// encodeBatch marshals (and size-checks) a whole batch into one frame
// stream. It touches no journal state, so the insert path runs it *before*
// taking the append lock — the CPU-bound JSON encoding of concurrent
// batches overlaps instead of queueing on ioMu.
func encodeBatch(batch [][]string, requestID string) ([]byte, error) {
	var frames []byte
	for _, tokens := range batch {
		var err error
		if frames, err = marshalFrame(frames, tokens, requestID); err != nil {
			return nil, err
		}
	}
	return frames, nil
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

// AppendBatch frames and buffers a whole batch as one write: encodeBatch +
// appendFrames for single-writer callers (tests); the insert path splits
// the two around its lock acquisition.
func (j *journalWriter) AppendBatch(batch [][]string, requestID string) error {
	frames, err := encodeBatch(batch, requestID)
	if err != nil {
		return err
	}
	return j.appendFrames(frames)
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

// Sync flushes buffered entries and fsyncs the file — the one-call form
// for single-writer callers (tests); the group-commit path drives Flush and
// SyncFile separately so the fsync can leave the append lock.
func (j *journalWriter) Sync() error {
	if err := j.Flush(); err != nil {
		return err
	}
	return j.SyncFile()
}

// Close flushes and closes the journal.
func (j *journalWriter) Close() error {
	flushErr := j.buf.Flush()
	closeErr := j.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// decodeEntry parses a frame payload: a bare token array (id-less inserts
// and pre-request-id journals) or the {"rid", "tokens"} object form.
func decodeEntry(payload []byte) (journalEntry, error) {
	for _, c := range payload {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			var fe framedEntry
			if err := json.Unmarshal(payload, &fe); err != nil {
				return journalEntry{}, err
			}
			return journalEntry{Tokens: fe.Tokens, RequestID: fe.RequestID}, nil
		default:
			var tokens []string
			if err := json.Unmarshal(payload, &tokens); err != nil {
				return journalEntry{}, err
			}
			return journalEntry{Tokens: tokens}, nil
		}
	}
	return journalEntry{}, errors.New("empty payload")
}

// replayJournal reads every intact entry of the journal at path and returns
// them together with the byte offset up to which the file is valid. A
// missing file is an empty journal. A torn or corrupt tail entry ends the
// replay at the last intact offset; corruption *before* the end of the file
// (a bad CRC followed by more data) is reported as an error, since silently
// dropping interior records would be data loss. The frame-decode loop
// itself lives in journalScanner (journal_reader.go), shared with the
// replication apply path.
func replayJournal(fsys fsx.FS, path string) (entries []journalEntry, validLen int64, err error) {
	f, err := fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	s := newJournalScanner(f, 0, fi.Size(), path)
	entries, err = s.scanAll()
	if err != nil {
		return nil, 0, err
	}
	return entries, s.Offset(), nil
}
