package server

import (
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"gbkmv"
	"gbkmv/internal/fsx"
)

// Storage integrity: the disk is an adversary. Snapshot files carry CRC64
// checksums in the commit record and are verified at three independent
// points — load, background scrub, and bootstrap transfer. A corrupt
// committed generation is quarantined (renamed aside, never swept as stale)
// and load falls back to the previous intact generation plus full journal
// replay; a follower re-bootstraps from its leader instead. ENOSPC/EIO on
// the write path flips the collection into explicit read-only mode (writes
// shed 503, reads keep serving) until a background probe sees the disk heal.

// crcTable is the CRC64 polynomial used for snapshot file checksums. ECMA is
// the stdlib's strongest table; the journal keeps its own per-frame CRC32.
var crcTable = crc64.MakeTable(crc64.ECMA)

// fileSum is one snapshot file's entry in the commit record: exact size and
// CRC64, computed from the bytes as they were written (so a short, torn, or
// bit-flipped file can never verify).
type fileSum struct {
	Size  int64  `json:"size"`
	CRC64 string `json:"crc64"`
}

func (s fileSum) zero() bool { return s.CRC64 == "" && s.Size == 0 }

// errChecksum marks a snapshot file whose bytes do not match its commit
// record — distinguishable from I/O and parse errors so callers can route
// it to quarantine.
var errChecksum = errors.New("checksum mismatch")

// verifyFile streams a snapshot file through the CRC64 in constant memory
// and checks its size and sum against the commit record's entry. It is the
// scrubber's read, the follower's check of a transferred file, and the first
// of load's two passes: nobody parses a byte of a file that has not
// verified. A commit record with no entry for the file cannot verify
// anything; only builds older than the snapshot format wrote those, hence
// the format error.
func verifyFile(fsys fsx.FS, path string, want fileSum) error {
	if want.zero() {
		return fmt.Errorf("%s: %w: the commit record carries no checksum for it", path, gbkmv.ErrSnapshotFormat)
	}
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := &countingWriter{w: io.Discard}
	if _, err := io.Copy(cw, f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if got := cw.sum(); got.Size != want.Size {
		return fmt.Errorf("%s: %w: size %d, committed %d", path, errChecksum, got.Size, want.Size)
	} else if got.CRC64 != want.CRC64 {
		return fmt.Errorf("%s: %w: crc64 %s, committed %s", path, errChecksum, got.CRC64, want.CRC64)
	}
	return nil
}

// loadVerified verifies a snapshot file, then opens it again for load to
// parse: each section streams from the file into the slice that keeps it, so
// a load's peak memory is what it loads. The file is read twice (the second
// time from the page cache) instead of being held whole.
func loadVerified[T any](fsys fsx.FS, path string, want fileSum, load func(io.Reader) (T, error)) (T, error) {
	var zero T
	if err := verifyFile(fsys, path, want); err != nil {
		return zero, err
	}
	f, err := fsys.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	v, err := load(f)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// countingWriter threads the snapshot writer's output through the checksum,
// so the committed sum covers exactly the bytes handed to the filesystem.
type countingWriter struct {
	w   io.Writer
	n   int64
	crc uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc64.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	return n, err
}

func (cw *countingWriter) sum() fileSum {
	return fileSum{Size: cw.n, CRC64: fmt.Sprintf("%016x", cw.crc)}
}

// quarantineDir is where a corrupt generation's snapshot files are moved:
// renamed aside for forensics, never deleted by the stale-generation sweep.
func quarantineDir(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("quarantine-%d", gen))
}

// quarantineGeneration moves the generation's snapshot files into the
// quarantine directory. The journal stays in place: it is CRC-framed,
// self-verifying, and the fallback load still replays it.
func quarantineGeneration(fsys fsx.FS, dir string, gen uint64) error {
	qdir := quarantineDir(dir, gen)
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	var first error
	for _, path := range []string{indexPath(dir, gen), vocabPath(dir, gen)} {
		err := fsys.Rename(path, filepath.Join(qdir, filepath.Base(path)))
		if err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// isDegradingDiskErr reports whether a write-path error means the disk
// itself is unhealthy — the errors that flip a collection read-only until
// the probe sees the disk heal. Anything else (a closed journal, an
// injected test error) fails the operation without degrading the node.
func isDegradingDiskErr(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, syscall.EIO) || errors.Is(err, syscall.EROFS)
}

// noteDiskError books a write-path disk error: the per-op counter always,
// and — for the errors that mean the disk is unhealthy — the transition
// into read-only mode. It is the wal's and the generations' disk-error hook.
func (c *Collection) noteDiskError(op string, err error) {
	if err == nil {
		return
	}
	c.store.metrics.diskErrors.With(op).Inc()
	if isDegradingDiskErr(err) && c.readOnly.CompareAndSwap(false, true) {
		c.roReason.Store(fmt.Sprintf("%s: %v", op, err))
		c.store.logf("gbkmvd: collection %q entering read-only mode (%s: %v); reads keep serving, writes shed until the disk heals",
			c.name, op, err)
	}
}

// ReadOnlyState reports whether the collection is in storage-degraded
// read-only mode, and why.
func (c *Collection) ReadOnlyState() (bool, string) {
	if !c.readOnly.Load() {
		return false, ""
	}
	reason, _ := c.roReason.Load().(string)
	return true, reason
}

// probe checks whether the disk under the collection's directory takes
// writes: a small write+fsync+remove.
func (g *generations) probe() error {
	if g.dir == "" {
		return nil
	}
	path := filepath.Join(g.dir, ".probe")
	defer g.fs.Remove(path)
	return writeBytesSync(g.fs, path, []byte("gbkmv storage probe\n"))
}

// probeStorage checks whether a read-only collection's disk healed; on
// success the collection leaves read-only mode.
func (c *Collection) probeStorage() error {
	if err := c.gens.probe(); err != nil {
		return err
	}
	if c.readOnly.CompareAndSwap(true, false) {
		c.roReason.Store("")
		c.store.logf("gbkmvd: collection %q storage healed; leaving read-only mode", c.name)
	}
	return nil
}

// storageStatus is the one-word health of the collection's storage, used by
// /healthz: "ok", "degraded:read-only", or "quarantined:<gen>" (a corrupt
// generation was detected and not yet superseded by a repair snapshot).
func (c *Collection) storageStatus() string {
	if g := c.gens.quarantined.Load(); g != 0 {
		return fmt.Sprintf("quarantined:%d", g)
	}
	if ro, _ := c.ReadOnlyState(); ro {
		return "degraded:read-only"
	}
	return "ok"
}

// QuarantineEvent is one corruption detection, surfaced through /stats.
type QuarantineEvent struct {
	Collection string    `json:"collection"`
	Generation uint64    `json:"generation"`
	Stage      string    `json:"stage"` // "load" or "scrub"
	Detail     string    `json:"detail"`
	At         time.Time `json:"at"`
}

// maxQuarantineEvents bounds the in-memory event log (oldest dropped).
const maxQuarantineEvents = 64

func (s *Store) noteQuarantine(collection string, gen uint64, stage, detail string) {
	s.metrics.quarantines.With(collection).Inc()
	s.qmu.Lock()
	s.quarantineLog = append(s.quarantineLog, QuarantineEvent{
		Collection: collection, Generation: gen, Stage: stage, Detail: detail,
		At: time.Now().UTC(),
	})
	if len(s.quarantineLog) > maxQuarantineEvents {
		s.quarantineLog = s.quarantineLog[len(s.quarantineLog)-maxQuarantineEvents:]
	}
	s.qmu.Unlock()
}

// quarantineEvents returns the recorded events for one collection (all
// collections when name is empty), newest last.
func (s *Store) quarantineEvents(name string) []QuarantineEvent {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	var out []QuarantineEvent
	for _, e := range s.quarantineLog {
		if name == "" || e.Collection == name {
			out = append(out, e)
		}
	}
	return out
}

// StorageHealth is a collection's storage posture in /stats.
type StorageHealth struct {
	Status                string            `json:"status"` // as in /healthz
	ReadOnly              bool              `json:"read_only,omitempty"`
	Reason                string            `json:"reason,omitempty"`
	QuarantinedGeneration uint64            `json:"quarantined_generation,omitempty"`
	Quarantines           []QuarantineEvent `json:"quarantines,omitempty"`
	// SnapshotBytes is the size on disk of the snapshot (index + vocabulary
	// files) the collection was last saved to or loaded from.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

func (s *Store) storageHealth(c *Collection) *StorageHealth {
	ro, reason := c.ReadOnlyState()
	return &StorageHealth{
		Status:                c.storageStatus(),
		ReadOnly:              ro,
		Reason:                reason,
		QuarantinedGeneration: c.gens.quarantined.Load(),
		Quarantines:           s.quarantineEvents(c.name),
		SnapshotBytes:         c.gens.snapBytes.Load(),
	}
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Collections int      `json:"collections"`
	Failures    []string `json:"failures,omitempty"`
}

// ScrubNow re-reads and verifies every persistent collection's committed
// generation files — snapshot checksums and journal frame CRCs — right now,
// quarantining (and, on a leader, repairing by re-snapshot) anything
// corrupt. The background scrubber calls this on its interval; tests and
// operators can call it directly for a deterministic pass.
func (s *Store) ScrubNow() ScrubReport {
	var rep ScrubReport
	for _, name := range s.Names() {
		c, err := s.Get(name)
		if err != nil || !c.gens.persistent() {
			continue
		}
		rep.Collections++
		if err := s.scrubCollection(c); err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", name, err))
		}
	}
	s.metrics.scrubPasses.Inc()
	s.metrics.lastScrubNano.Store(time.Now().UnixNano())
	return rep
}

// verifyCommitted re-reads the committed generation's files: both snapshot
// checksums and the journal's frame CRCs. corrupt names the generation when
// verr says it is. The check is optimistic about concurrent snapshots: it
// verifies against the commit record it read first, and on failure re-reads
// the record — if the generation moved, the files it read were legitimately
// superseded mid-scrub and the pass is clean.
func (g *generations) verifyCommitted() (corrupt uint64, verr error) {
	m, err := readMeta(g.fs, g.dir)
	if err != nil {
		return 0, fmt.Errorf("reading commit record: %w", err)
	}
	verr = func() error {
		if err := verifyFile(g.fs, indexPath(g.dir, m.Generation), m.Checksums["index"]); err != nil {
			return fmt.Errorf("index snapshot: %w", err)
		}
		if err := verifyFile(g.fs, vocabPath(g.dir, m.Generation), m.Checksums["vocab"]); err != nil {
			return fmt.Errorf("vocabulary snapshot: %w", err)
		}
		// The journal's own frame CRCs make it self-verifying; a torn tail
		// (or a frame mid-append by a concurrent insert) ends the scan
		// cleanly, interior corruption is an error. Whether a frame's ids
		// are in the vocabulary is for the next load's replay to say.
		if _, _, err := scanJournal(g.fs, journalPath(g.dir, m.Generation), func(*frame) error { return nil }, func(int, int, string) {}); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		return nil
	}()
	if verr == nil {
		return 0, nil
	}
	if m2, err := readMeta(g.fs, g.dir); err == nil && m2.Generation != m.Generation {
		return 0, nil // superseded mid-scrub; the new generation gets the next pass
	}
	return m.Generation, verr
}

// quarantine moves generation gen's snapshot files aside and marks it.
func (g *generations) quarantine(gen uint64) error {
	err := quarantineGeneration(g.fs, g.dir, gen)
	g.quarantined.Store(gen)
	return err
}

// scrubCollection verifies one collection's committed generation on disk,
// quarantining it — and, on a leader, repairing by a fresh snapshot — when it
// is corrupt.
func (s *Store) scrubCollection(c *Collection) error {
	gen, verr := c.gens.verifyCommitted()
	if gen == 0 {
		return verr
	}
	s.metrics.scrubFails.Inc()
	s.metrics.verifyFails.With(c.name, "scrub").Inc()
	s.logf("gbkmvd: scrub: collection %q generation %d is corrupt: %v", c.name, gen, verr)
	s.noteQuarantine(c.name, gen, "scrub", verr.Error())
	if qerr := c.gens.quarantine(gen); qerr != nil {
		s.logf("gbkmvd: scrub: quarantining generation %d of %q: %v", gen, c.name, qerr)
	}
	// Leader self-repair: the in-memory state is intact (the corruption was
	// found on disk, not in memory), so a fresh snapshot writes a verified
	// replacement generation. Followers must not advance their generation
	// unilaterally — their repair is the leader-driven stream (or, for a
	// corrupt snapshot discovered at restart, a re-bootstrap).
	if ro, _ := c.ReadOnlyState(); s.role() == nil && !ro {
		if _, err := s.Snapshot(c.name); err != nil {
			s.logf("gbkmvd: scrub: repair snapshot of %q failed: %v", c.name, err)
		} else {
			s.logf("gbkmvd: scrub: collection %q repaired by snapshot (corrupt generation %d quarantined in %s)",
				c.name, gen, quarantineDir(c.gens.dir, gen))
		}
	}
	return verr
}

// StartScrubber runs the background storage-health loop: a scrub pass every
// scrubEvery (0 disables scrubbing), and — regardless of scrubEvery — a
// short-interval probe that moves read-only collections back to writable
// once their disk heals. Stop with StopScrubber (Store.Close does).
func (s *Store) StartScrubber(scrubEvery time.Duration) {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if s.scrubStop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	s.scrubStop, s.scrubDone = stop, done
	go s.scrubLoop(scrubEvery, stop, done)
}

// StopScrubber stops the background loop and waits for it to exit.
func (s *Store) StopScrubber() {
	s.scrubMu.Lock()
	stop, done := s.scrubStop, s.scrubDone
	s.scrubStop, s.scrubDone = nil, nil
	s.scrubMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// probeInterval is how often read-only collections re-probe their disk.
const probeInterval = 2 * time.Second

func (s *Store) scrubLoop(scrubEvery time.Duration, stop, done chan struct{}) {
	defer close(done)
	probe := time.NewTicker(probeInterval)
	defer probe.Stop()
	var scrubC <-chan time.Time
	if scrubEvery > 0 {
		t := time.NewTicker(scrubEvery)
		defer t.Stop()
		scrubC = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-probe.C:
			s.probeReadOnly()
		case <-scrubC:
			s.ScrubNow()
		}
	}
}

// probeReadOnly probes every read-only collection's disk; probeStorage
// clears the mode itself when the disk answers.
func (s *Store) probeReadOnly() {
	for _, name := range s.Names() {
		c, err := s.Get(name)
		if err != nil {
			continue
		}
		if ro, _ := c.ReadOnlyState(); ro {
			c.probeStorage() // error: still unhealthy, stay read-only
		}
	}
}

// VerifySnapshotFiles checks a transferred snapshot against its transferred
// commit record: the follower calls this on the files it just downloaded,
// before renaming the record into place — the transfer-time verification
// point. metaBytes is the verbatim commit record; gen must match it.
func VerifySnapshotFiles(fsys fsx.FS, dir string, gen uint64, metaBytes []byte) error {
	m, err := decodeMeta(metaBytes, filepath.Join(dir, "meta.json"))
	if err != nil {
		return fmt.Errorf("transferred commit record: %w", err)
	}
	if m.Generation != gen {
		return fmt.Errorf("transferred commit record names generation %d, transfer was for %d", m.Generation, gen)
	}
	if err := verifyFile(fsys, indexPath(dir, gen), m.Checksums["index"]); err != nil {
		return fmt.Errorf("transferred index snapshot: %w", err)
	}
	if err := verifyFile(fsys, vocabPath(dir, gen), m.Checksums["vocab"]); err != nil {
		return fmt.Errorf("transferred vocabulary snapshot: %w", err)
	}
	return nil
}

// NoteTransferVerifyFailure books a failed bootstrap-transfer verification
// (the follower's side of the transfer verification point).
func (s *Store) NoteTransferVerifyFailure(collection string) {
	s.metrics.verifyFails.With(collection, "transfer").Inc()
}
