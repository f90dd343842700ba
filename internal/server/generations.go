package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gbkmv"
	"gbkmv/internal/fsx"
)

// generations is one collection's state on disk, and (with integrity.go,
// which verifies it) the only code that names its files:
//
//	<dir>/meta.json        the commit record: a generation is live iff it names it
//	<dir>/meta-prev.json   the commit record the live one superseded (fallback target)
//	<dir>/index-G.snap     generation G's index stream
//	<dir>/vocab-G.snap     generation G's vocabulary
//	<dir>/journal-G.log    inserts since snapshot G (the wal appends to it)
//
// Writing meta.json (atomic rename) is the commit point of a snapshot; every
// other file write may be torn by a crash and is ignored unless its
// generation is committed.
type generations struct {
	dir     string // collection directory; "" when the store is memory-only
	fs      fsx.FS
	diskErr func(op string, err error) // books a write-path disk error; bound once

	// gen is the committed generation the memory state follows. derived is
	// snapshot lineage: true when that state was produced from the committed
	// generation (a load, or any earlier snapshot commit), so the next
	// snapshot may name it as its Parent — the fallback target; false for a
	// fresh build, whose snapshot supersedes everything on disk. Both change
	// only under the store's opMu.
	gen     uint64
	derived bool
	// snapBytes is the size of the snapshot files (index + vocabulary) of the
	// generation the state was last saved to or loaded from. quarantined is
	// the corrupt generation detected at load or by the scrubber, cleared by
	// the next committed snapshot.
	snapBytes   atomic.Int64
	quarantined atomic.Uint64
}

// meta is the per-collection commit record. Engine is always "gbkmv"
// (informational — the index file is a GB-KMV index stream, and a load
// refuses any other); Requests persists the duplicate-detection window
// across the journal truncation a snapshot implies.
type meta struct {
	Name       string         `json:"name"`
	Engine     string         `json:"engine,omitempty"`
	Generation uint64         `json:"generation"`
	Records    int            `json:"records"`
	SavedAt    time.Time      `json:"saved_at"`
	Requests   []requestEntry `json:"requests,omitempty"`
	// Parent is the generation this snapshot was derived from (by journal
	// replay on top of its state): the load-time fallback target when this
	// generation's files turn out corrupt, and the one older generation the
	// stale sweep retains. 0 means no ancestor — a fresh build, which
	// supersedes everything on disk and can never fall back.
	Parent uint64 `json:"parent,omitempty"`
	// Checksums carries each snapshot file's exact size and CRC64 ("index",
	// "vocab"), computed from the bytes as written. Verified at load, by the
	// background scrubber, and by followers on bootstrap transfer.
	Checksums map[string]fileSum `json:"checksums,omitempty"`
}

func metaPath(dir string) string     { return filepath.Join(dir, "meta.json") }
func metaPrevPath(dir string) string { return filepath.Join(dir, "meta-prev.json") }
func indexPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("index-%d.snap", gen))
}
func vocabPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("vocab-%d.snap", gen))
}
func journalPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%d.log", gen))
}

// ReplicaSnapshotPaths returns where a follower's bootstrap writes the
// transferred generation files: the index and vocabulary snapshots, and the
// meta.json commit record. The bootstrap must write meta last (via a tmp
// file renamed into place) — exactly like a local snapshot, it is the
// commit point that makes the generation loadable.
func ReplicaSnapshotPaths(dir string, gen uint64) (index, vocab, metaFile string) {
	return indexPath(dir, gen), vocabPath(dir, gen), metaPath(dir)
}

// journalFile names generation gen's journal, for the wal stream to read the
// durable range from.
func (g *generations) journalFile(gen uint64) string { return journalPath(g.dir, gen) }

// snapshotFile names the file a bootstrap transfer of the given kind ("meta",
// "index" or "vocab") serves for generation gen, and the key of its checksum
// in the commit record ("" for the record itself).
func (g *generations) snapshotFile(kind string, gen uint64) (path, sumKey string, ok bool) {
	switch kind {
	case "meta":
		return metaPath(g.dir), "", true
	case "index":
		return indexPath(g.dir, gen), kind, true
	case "vocab":
		return vocabPath(g.dir, gen), kind, true
	}
	return "", "", false
}

// committedSum is the checksum the commit record holds for generation gen's
// file — the committed one, not one recomputed from the file: a file rotted
// on this disk must fail the receiver's verification rather than travel with
// a fresh, matching sum.
func (g *generations) committedSum(gen uint64, key string) (fileSum, bool) {
	m, err := readMeta(g.fs, g.dir)
	if err != nil || m.Generation != gen {
		return fileSum{}, false
	}
	sum, ok := m.Checksums[key]
	return sum, ok && !sum.zero()
}

// init binds a collection's generations, once, to its directory ("" in a
// memory-only store), the store's filesystem and the disk-error hook.
func (g *generations) init(dir string, fsys fsx.FS, diskErr func(op string, err error)) {
	g.dir, g.fs, g.diskErr = dir, fsys, diskErr
}

func (g *generations) persistent() bool { return g.dir != "" }

func decodeMeta(b []byte, path string) (meta, error) {
	var m meta
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %v", path, err)
	}
	return m, nil
}

// readMeta reads the directory's commit record.
func readMeta(fsys fsx.FS, dir string) (meta, error) { return readMetaFile(fsys, metaPath(dir)) }

func readMetaFile(fsys fsx.FS, path string) (meta, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return meta{}, err
	}
	return decodeMeta(b, path)
}

// writeFileSync creates (truncating) path, runs write, fsyncs and closes,
// returning the exact size and CRC64 of the bytes written — the commit
// record's verification entry for the file.
func writeFileSync(fsys fsx.FS, path string, write func(w io.Writer) error) (fileSum, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fileSum{}, err
	}
	cw := &countingWriter{w: f}
	if err := write(cw); err != nil {
		f.Close()
		return fileSum{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fileSum{}, err
	}
	return cw.sum(), f.Close()
}

func writeBytesSync(fsys fsx.FS, path string, b []byte) error {
	_, err := writeFileSync(fsys, path, func(w io.Writer) error { _, err := w.Write(b); return err })
	return err
}

// chain numbers a fresh build's generations past any state already in the
// directory, so that its first snapshot's commit atomically supersedes that
// state. A meta.json that exists but cannot be read means the committed
// generation is unknown — an error, rather than risk the abort path sweeping
// files the commit record still names.
func (g *generations) chain() error {
	switch m, err := readMeta(g.fs, g.dir); {
	case err == nil:
		g.gen = m.Generation
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	return nil
}

func (g *generations) mkdir() error { return g.fs.MkdirAll(g.dir, 0o755) }

// discardNext deletes the files of the generation a failed snapshot was
// writing — the abort path of a build that never became visible, which owns
// the uncommitted generation outright (the stale sweep deliberately never
// touches generations newer than the commit record).
func (g *generations) discardNext() {
	g.fs.Remove(indexPath(g.dir, g.gen+1))
	g.fs.Remove(vocabPath(g.dir, g.gen+1))
	g.fs.Remove(journalPath(g.dir, g.gen+1))
}

// removeAll deletes the collection's directory.
func (g *generations) removeAll() error {
	if g.dir == "" {
		return nil
	}
	return g.fs.RemoveAll(g.dir)
}

// reopenJournal opens the committed generation's journal for appending at
// its current end (see wal.reopen).
func (g *generations) reopenJournal() (*journalWriter, error) {
	path := journalPath(g.dir, g.gen)
	fi, err := g.fs.Stat(path)
	if err != nil {
		return nil, err
	}
	return openJournalWriter(g.fs, path, fi.Size())
}

// committedSnapshot is what snapshot hands back once its rename landed.
type committedSnapshot struct {
	gen  uint64
	log  *journalWriter // generation gen's empty journal, for the wal to swap in
	sums map[string]fileSum
	// What it cost: encode is the time spent producing bytes (writes into the
	// page cache included), fsync the rest of writing the two files; index is
	// the whole index file write — how long one engine state was being read.
	encode, fsync, index time.Duration
}

// snapshot writes generation gen+1 — index, vocabulary, an empty journal —
// and commits it by atomically replacing meta.json with m (completed here
// with the generation, its parent, the checksums and the time), then sweeps
// superseded generations. A nil result means nothing was committed. A
// result with an error means the rename landed but the directory fsync did
// not: the new generation is what a restart loads, so memory must follow it
// — journaling into the superseded generation would fsync acknowledged
// inserts to a file replay never reads.
//
// A derived snapshot (Parent != 0) retains its parent's files and copies the
// superseded commit record to meta-prev.json, so a later load that finds
// this generation corrupt can quarantine it and fall back to the parent plus
// full journal replay. A fresh build supersedes everything: no fallback
// target is kept.
//
// The caller holds opMu and keeps inserts out (a quiesced wal) for the whole
// duration, so index and vocab see one state and m's request window is
// final.
func (g *generations) snapshot(m meta, index, vocab func(io.Writer) error) (*committedSnapshot, error) {
	snap := &committedSnapshot{gen: g.gen + 1, sums: make(map[string]fileSum, 2)}
	fail := func(err error) (*committedSnapshot, error) {
		if snap.log != nil {
			snap.log.Close()
		}
		g.diskErr("snapshot", err)
		return nil, err
	}
	writeTimed := func(path string, write func(io.Writer) error) (fileSum, error) {
		start, encoded := time.Now(), time.Duration(0)
		s, err := writeFileSync(g.fs, path, func(w io.Writer) error {
			err := write(w)
			encoded = time.Since(start)
			return err
		})
		snap.encode += encoded
		snap.fsync += time.Since(start) - encoded
		return s, err
	}
	start := time.Now()
	var err error
	if snap.sums["index"], err = writeTimed(indexPath(g.dir, snap.gen), index); err != nil {
		return fail(fmt.Errorf("writing index snapshot: %w", err))
	}
	snap.index = time.Since(start)
	if snap.sums["vocab"], err = writeTimed(vocabPath(g.dir, snap.gen), vocab); err != nil {
		return fail(fmt.Errorf("writing vocabulary snapshot: %w", err))
	}
	if snap.log, err = openJournalWriter(g.fs, journalPath(g.dir, snap.gen), 0); err != nil {
		g.diskErr("snapshot", err)
		return nil, fmt.Errorf("creating journal: %w", err)
	}
	m.Generation, m.Checksums, m.SavedAt = snap.gen, snap.sums, time.Now().UTC()
	if g.derived {
		m.Parent = g.gen
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		snap.log.Close()
		return nil, err
	}
	if m.Parent != 0 {
		// Retain the fallback target: copy the commit record this snapshot
		// supersedes before the rename replaces it. A failure here only loses
		// the fallback breadcrumb, never the snapshot — but disk errors still
		// count.
		if pb, rerr := g.fs.ReadFile(metaPath(g.dir)); rerr == nil {
			if werr := writeBytesSync(g.fs, metaPrevPath(g.dir), pb); werr != nil {
				g.diskErr("snapshot", werr)
			}
		}
	}
	tmp := metaPath(g.dir) + ".tmp"
	if err := writeBytesSync(g.fs, tmp, b); err != nil {
		return fail(err)
	}
	if err := g.fs.Rename(tmp, metaPath(g.dir)); err != nil {
		return fail(err)
	}
	// Committed. Fresh verified files supersede any quarantined generation
	// (its files stay aside for forensics).
	g.gen, g.derived = snap.gen, true
	g.quarantined.Store(0)
	g.snapBytes.Store(snap.sums["index"].Size + snap.sums["vocab"].Size)
	// Make the commit durable before deleting superseded generations: a
	// power loss must never persist the removals while losing the rename.
	// On fsync failure, keep the old files and report the error.
	if err := g.fs.SyncDir(g.dir); err != nil {
		g.diskErr("dir_sync", err)
		return snap, fmt.Errorf("%w: syncing %s: %v", ErrStorage, g.dir, err)
	}
	if m.Parent == 0 {
		// Fresh build: the old lineage is gone, and so is its fallback record
		// — a later fallback into pre-replacement data would resurrect
		// deleted records.
		g.fs.Remove(metaPrevPath(g.dir))
	}
	sweepStaleGenerations(g.fs, g.dir, m)
	return snap, nil
}

// genState is a collection loaded from its directory, before assembly.
type genState struct {
	name string
	gen  uint64
	eng  *gbkmv.Index
	voc  *gbkmv.Vocabulary
	log  *journalWriter // the committed generation's journal, open at its valid end
	// The last journal replayed: how many entries it held, where its intact
	// frames end, whether bytes past that — a crash mid append — were cut, and
	// the duplicate-detection window as of its end.
	entries  int
	validLen int64
	tornTail bool
	window   *requestLog
	// snapBytes is the size of the two snapshot files loaded; quarantined and
	// detail say which generation a fallback moved aside, and why.
	snapBytes   int64
	quarantined uint64
	detail      string
	// The load's stages, as the startup line reports them: both snapshot
	// files verified and read, the sketch derived from the index file's
	// records, and the journal(s) replayed on top.
	readDur, deriveDur, replayDur time.Duration
}

// loadGeneration restores a collection's state from its directory: the
// committed snapshot (verified against its checksums), then every intact
// journal entry replayed on top (re-interning tokens in insert order
// reproduces the original element ids exactly), the journal left open for
// appending. If the committed generation's files are corrupt, they are
// quarantined and the same state is rebuilt from the retained parent
// generation (fallback).
func loadGeneration(fsys fsx.FS, dir string, logf func(string, ...any)) (*genState, error) {
	m, err := readMeta(fsys, dir)
	if err != nil {
		return nil, err
	}
	st, lerr := loadGenFiles(fsys, dir, m)
	if lerr != nil {
		if st, err = fallback(fsys, dir, m, lerr, logf); err != nil {
			return nil, err
		}
	}
	// The request window persisted at snapshot G is authoritative for
	// everything up to the snapshot (on the fallback path it subsumes the
	// parent's window plus the parent journal's runs); journal-G's runs land
	// on top. Interior corruption in journal-G is a hard error; a torn tail
	// is fine — those entries were never acknowledged.
	live := journalPath(dir, m.Generation)
	if err := st.replayOnto(fsys, live, m.Requests); err != nil {
		if lerr != nil {
			err = fmt.Errorf("generation %d corrupt (%v) and its journal replay failed: %w", m.Generation, lerr, err)
		}
		return nil, err
	}
	if st.log, err = openJournalWriter(fsys, live, st.validLen); err != nil {
		return nil, err
	}
	sweepStaleGenerations(fsys, dir, m)
	st.name, st.gen = m.Name, m.Generation
	return st, nil
}

// loadGenFiles loads generation m.Generation's index and vocabulary, each
// verified against the commit record's checksum before it is parsed
// (loadVerified). A mismatch surfaces as errChecksum, a file of another
// format as gbkmv.ErrSnapshotFormat; the caller decides whether to
// quarantine and fall back.
func loadGenFiles(fsys fsx.FS, dir string, m meta) (*genState, error) {
	readStart := time.Now()
	index := readClock{left: int(m.Checksums["index"].Size)}
	eng, err := loadVerified(fsys, indexPath(dir, m.Generation), m.Checksums["index"], func(r io.Reader) (*gbkmv.Index, error) {
		index.r = r
		return gbkmv.LoadEngine(&index)
	})
	if err != nil {
		return nil, err
	}
	derived := time.Now()
	voc, err := loadVerified(fsys, vocabPath(dir, m.Generation), m.Checksums["vocab"], gbkmv.LoadVocabulary)
	if err != nil {
		return nil, err
	}
	return &genState{eng: eng, voc: voc,
		snapBytes: m.Checksums["index"].Size + m.Checksums["vocab"].Size,
		readDur:   index.last.Sub(readStart) + time.Since(derived), deriveDur: derived.Sub(index.last)}, nil
}

// replayOnto replays the journal at path on top of st and rebuilds the
// duplicate-detection window as of its end: the ids persisted at the
// snapshot the journal follows, then every request-tagged batch (consecutive
// frames sharing a rid) in order.
func (st *genState) replayOnto(fsys fsx.FS, path string, persisted []requestEntry) error {
	start := time.Now()
	// Apply each frame to the vocabulary in entry order as it decodes (its
	// new tokens take the ids they took on the leader), then to the index as
	// one batch (the index decides threshold shrinks per
	// record, so the grouping cannot change its state).
	base := st.eng.Len()
	st.window = newRequestLog()
	for _, r := range persisted {
		st.window.add(r.ID, r.First, r.Count)
	}
	var recs recordSlab
	entries, validLen, err := scanJournal(fsys, path, func(f *frame) error {
		return recs.add(st.voc, f)
	}, func(from, to int, rid string) {
		st.window.add(rid, base+from, to-from)
	})
	if err != nil {
		return err
	}
	st.eng.AddBatch(recs.recs)
	// A torn tail is detected here, before openJournalWriter truncates it
	// away.
	fi, err := fsys.Stat(path)
	st.tornTail = err == nil && fi.Size() > validLen
	st.entries, st.validLen = entries, validLen
	st.replayDur += time.Since(start)
	return nil
}

// readClock is a snapshot file that notes when it was last read.
// gbkmv.LoadEngine reads its stream to the end before it derives anything
// from it, so that instant is where a load's reading ends and its deriving
// starts — timed apart without a second way into the loader. It says how
// much it still holds (the committed size, just verified), which is what
// bounds the loader's allocations.
type readClock struct {
	r    io.Reader
	left int
	last time.Time
}

func (c *readClock) Len() int { return c.left }

func (c *readClock) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.left -= n
	c.last = time.Now()
	return n, err
}

// fallback recovers the state of a collection whose committed generation G
// failed to load (lerr): it quarantines G's snapshot files and rebuilds what
// they held from the retained parent generation P plus a full replay of
// journal-P. Correctness rests on two invariants: journal-P is final after
// the snapshot that produced G (so P's snapshot + journal-P reproduces
// exactly the state G captured), and sweepStaleGenerations never removes the
// parent generation's files. The collection keeps generation G (meta.json
// still names it, journal-G stays live and is replayed by the caller), so a
// restart that finds G still corrupt simply falls back again.
func fallback(fsys fsx.FS, dir string, m meta, lerr error, logf func(string, ...any)) (*genState, error) {
	if errors.Is(lerr, gbkmv.ErrSnapshotFormat) {
		// The bytes verified; they are just not this build's format, and
		// neither is anything else an older build left here. Nothing is
		// corrupt, so nothing is quarantined.
		return nil, lerr
	}
	if m.Parent == 0 {
		// Fresh build: nothing retained to fall back to.
		return nil, lerr
	}
	// The retained previous commit record names the fallback target.
	prev, err := readMetaFile(fsys, metaPrevPath(dir))
	if err != nil || prev.Generation != m.Parent {
		return nil, lerr
	}
	logf("collection %s: generation %d corrupt (%v), falling back to generation %d",
		m.Name, m.Generation, lerr, m.Parent)
	// Quarantine before reloading: the corrupt files move aside (never
	// swept, kept for forensics), while journal-G stays in place.
	if err := quarantineGeneration(fsys, dir, m.Generation); err != nil {
		return nil, fmt.Errorf("generation %d corrupt (%v) and quarantine failed: %w", m.Generation, lerr, err)
	}
	st, err := loadGenFiles(fsys, dir, prev)
	if err == nil {
		err = st.replayOnto(fsys, journalPath(dir, prev.Generation), prev.Requests)
	}
	if err != nil {
		return nil, fmt.Errorf("generation %d corrupt (%v) and fallback to %d failed: %w",
			m.Generation, lerr, m.Parent, err)
	}
	st.quarantined, st.detail = m.Generation, lerr.Error()
	return st, nil
}

// adopt makes a loaded generation the one memory follows.
func (g *generations) adopt(st *genState) {
	g.gen, g.derived = st.gen, true
	g.snapBytes.Store(st.snapBytes)
	g.quarantined.Store(st.quarantined)
}

// sweepStaleGenerations removes snapshot/journal files of superseded
// generations — orphans left by a crash between a snapshot's commit and
// its cleanup, or by an aborted snapshot attempt. The invariant, relied on
// by fallback and tested in integrity_test.go: only generations *strictly
// older* than the committed one are stale, and even then the committed
// record's Parent generation is retained (it is the fallback target if the
// committed files turn out corrupt). Anything newer than the committed
// generation belongs to an in-flight snapshot attempt and is left alone (the
// next attempt reopens it with O_TRUNC); directories — including
// quarantine-<gen>/ — are never touched.
func sweepStaleGenerations(fsys fsx.FS, dir string, m meta) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	var gen uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			continue // quarantine dirs and anything else — never ours to sweep
		case name == "meta.json" || name == "meta-prev.json":
			continue
		case strings.HasSuffix(name, ".tmp"):
		case parseGen(name, "index-", ".snap", &gen),
			parseGen(name, "vocab-", ".snap", &gen),
			parseGen(name, "journal-", ".log", &gen):
			if gen >= m.Generation || gen == m.Parent {
				continue
			}
		default:
			continue // not ours
		}
		fsys.Remove(filepath.Join(dir, name))
	}
}

// parseGen extracts the generation from a "<prefix><gen><suffix>" file name.
func parseGen(name, prefix, suffix string, gen *uint64) bool {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	g, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return false
	}
	*gen = g
	return true
}
