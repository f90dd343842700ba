package server

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gbkmv"
	"gbkmv/internal/fsx"
)

// Store errors surfaced to handlers.
var (
	ErrNotFound      = errors.New("server: no such collection")
	ErrBadName       = errors.New("server: invalid collection name")
	ErrNoPersistence = errors.New("server: store has no data directory")
	// ErrStorage marks server-side disk failures (journal, snapshot), which
	// handlers must report as 5xx, not as client errors.
	ErrStorage = errors.New("server: storage failure")
	// ErrDuplicateRequest marks an insert whose request_id was already
	// applied — the retry after the WAL-ambiguity window (see
	// Collection.Insert). Handlers report it as 409 Conflict.
	ErrDuplicateRequest = errors.New("server: duplicate insert request")
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,127}$`)

// ValidName reports whether name is acceptable as a collection name (and
// therefore as a directory name under the data directory: no separators, no
// leading dot).
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Store holds the named collections of a gbkmvd instance: their lifecycle
// (open, create, replace, delete, snapshot, close) and the settings they
// share. The collections map is guarded by mu; each collection guards its
// own index with a RWMutex so searches on one collection run concurrently
// with builds on another. Lifecycle operations are serialized by opMu — the
// head of the lock order opMu → syncMu → ioMu → mu that wal.go states in
// full — so concurrent PUTs to the same name cannot interleave their disk
// writes.
type Store struct {
	dir  string // data directory; "" disables persistence
	fs   fsx.FS // filesystem the journal and snapshot paths go through
	logf func(format string, args ...any)

	// Fixed at OpenStore: the options as given, and what it resolved from them.
	opt        StoreOptions
	fileRoot   string        // resolved root for server-side file builds; "" disables them
	cacheCap   int           // answer cache entries per collection; 0 disables
	insertGate chan struct{} // in-flight-insert semaphore; nil means unbounded

	metrics *Metrics    // see metrics.go
	ready   atomic.Bool // set once startup loading finished (readiness)

	// replica is the follower role (see repl_apply.go); nil on a leader.
	replica atomic.Pointer[Replica]

	// Background storage-health loop (see integrity.go) and the bounded
	// quarantine event log surfaced through /stats.
	scrubMu              sync.Mutex
	scrubStop, scrubDone chan struct{}
	qmu                  sync.Mutex
	quarantineLog        []QuarantineEvent

	opMu sync.Mutex // serializes build/delete/snapshot/close (all disk mutation)
	mu   sync.RWMutex
	cols map[string]*Collection
}

// FS returns the filesystem the store's journal and snapshot paths go
// through — the follower's bootstrap writes through it too, so disk-chaos
// tests cover the transfer path.
func (s *Store) FS() fsx.FS { return s.fs }

// acquireInsertSlot claims an in-flight-insert slot. ok=false means the gate
// is full and the request must be shed; release is non-nil iff a slot was
// actually claimed.
func (s *Store) acquireInsertSlot() (release func(), ok bool) {
	if s.insertGate == nil {
		return nil, true
	}
	select {
	case s.insertGate <- struct{}{}:
		return func() { <-s.insertGate }, true
	default:
		return nil, false
	}
}

// DefaultQueryCacheEntries is the per-collection answer cache size
// of a store whose options name none.
const DefaultQueryCacheEntries = 4096

// StoreOptions configures OpenStore; every field is read once, there. The
// zero value is a store on the real filesystem, logging through log.Printf,
// with the default query cache and every limit off.
type StoreOptions struct {
	// FS injects a filesystem (nil means the real one) — the entry point of
	// the disk-chaos tests.
	FS fsx.FS
	// Logf receives startup and operational log lines (nil means log.Printf).
	Logf func(format string, args ...any)
	// Segments is ignored: a collection is one index. It stays only because
	// the benchmark module sets it, and goes when that module stops naming it
	// (ROADMAP 7b's unlink).
	Segments int
	// QueryCacheEntries is the answer cache capacity per collection:
	// 0 means DefaultQueryCacheEntries, a negative value disables caching.
	QueryCacheEntries int
	// RecordFileRoot enables PUT builds from server-side files, restricted to
	// paths under it. Empty rejects file builds: an unauthenticated API must
	// not be allowed to read arbitrary server files.
	RecordFileRoot string
	// SlowQueryThreshold enables the slow-query log: search-shaped requests
	// (search, topk and their batch forms) taking at least this long emit one
	// structured log line with the request's trace. Zero disables it.
	SlowQueryThreshold time.Duration
	// RequestTimeout bounds every request (except the deliberately
	// long-running replication endpoints) with a context deadline; handlers
	// shed with 503 + Retry-After once it passes. Zero disables it.
	RequestTimeout time.Duration
	// ResponseWriteTimeout bounds how long a response write may take for
	// non-long-poll endpoints (slowloris/stuck-reader protection applied
	// per-request, since a server-wide WriteTimeout would kill WAL
	// long-polls). Zero disables it.
	ResponseWriteTimeout time.Duration
	// MaxInflightInserts bounds concurrently served insert requests: past it
	// the insert endpoint sheds with 503 + Retry-After instead of piling more
	// batches onto the commit queue. Zero means unbounded.
	MaxInflightInserts int
}

// OpenStore opens a store over the data directory, reloading every
// collection previously snapshotted there (latest snapshot plus journal
// replay). An empty dir yields a memory-only store. Collections that fail to
// load are skipped with a logged warning rather than failing startup.
func OpenStore(dir string, o StoreOptions) (*Store, error) {
	s := &Store{dir: dir, fs: o.FS, logf: o.Logf, opt: o, cacheCap: o.QueryCacheEntries,
		cols: make(map[string]*Collection)}
	if s.logf == nil {
		s.logf = log.Printf
	}
	if s.fs == nil {
		s.fs = fsx.Default
	}
	if s.cacheCap == 0 {
		s.cacheCap = DefaultQueryCacheEntries
	}
	if o.MaxInflightInserts > 0 {
		s.insertGate = make(chan struct{}, o.MaxInflightInserts)
	}
	if o.RecordFileRoot != "" {
		// Resolve the root itself so ResolveRecordFile's containment check
		// compares like with like.
		abs, err := filepath.Abs(o.RecordFileRoot)
		if err == nil {
			s.fileRoot, err = filepath.EvalSymlinks(abs)
		}
		if err != nil {
			return nil, fmt.Errorf("record-file root: %w", err)
		}
	}
	s.metrics = newMetrics()
	s.metrics.reg.OnScrape(s.mirrorCollections)
	if dir == "" {
		s.ready.Store(true)
		return s, nil
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cdir := filepath.Join(dir, e.Name())
		if _, err := s.fs.Stat(filepath.Join(cdir, "meta.json")); err != nil {
			continue // not a collection directory
		}
		st, err := loadGeneration(s.fs, cdir, s.logf)
		if err != nil {
			remedy := ""
			switch {
			case errors.Is(err, gbkmv.ErrSnapshotFormat):
				remedy = "; an older build wrote it and this one reads only its own format: rebuild the collection from its records"
			case errors.Is(err, errChecksum):
				s.metrics.verifyFails.With(e.Name(), "load").Inc()
			}
			s.logf("gbkmvd: skipping collection %q: %v%s", e.Name(), err, remedy)
			continue
		}
		c := s.adopt(cdir, st)
		s.cols[c.name] = c
		s.logf("gbkmvd: loaded collection %q: engine %s, %d records, %d replayed from journal (verify + read %s, derive %s, replay %s)",
			c.name, c.eng.EngineName(), st.eng.Len(), st.entries, st.readDur.Round(time.Millisecond),
			st.deriveDur.Round(time.Millisecond), st.replayDur.Round(time.Millisecond))
	}
	s.ready.Store(true)
	return s, nil
}

// adopt assembles the collection a load produced — the startup path and the
// follower's InstallReplica — and books the load's one-shot telemetry.
func (s *Store) adopt(dir string, st *genState) *Collection {
	c := s.newCollection(st.name, dir, st.voc, st.eng)
	c.gens.adopt(st)
	c.wal.open(st.log, st.gen, st.entries, st.window)
	s.metrics.replaySecs.With(c.name).Set(st.replayDur.Seconds())
	if st.tornTail {
		s.metrics.tornTails.With(c.name).Inc()
	}
	if st.quarantined != 0 {
		// The load quarantined a corrupt generation and fell back.
		s.metrics.verifyFails.With(c.name, "load").Inc()
		s.noteQuarantine(c.name, st.quarantined, "load", st.detail)
	}
	return c
}

// ResolveRecordFile validates a client-supplied record file path against
// the configured root: relative paths resolve under it, and the result —
// with every symlink resolved, so a link inside the root cannot point back
// out — must not escape it.
func (s *Store) ResolveRecordFile(path string) (string, error) {
	if s.fileRoot == "" {
		return "", errors.New("server-side file builds are disabled (start gbkmvd with -record-files)")
	}
	if !filepath.IsAbs(path) {
		path = filepath.Join(s.fileRoot, path)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", err
	}
	resolved, err := filepath.EvalSymlinks(abs)
	if err != nil {
		return "", fmt.Errorf("record file %q: %v", path, err)
	}
	if resolved != s.fileRoot && !strings.HasPrefix(resolved, s.fileRoot+string(filepath.Separator)) {
		return "", fmt.Errorf("file %q is outside the record-files root", path)
	}
	return resolved, nil
}

// Get returns the named collection.
func (s *Store) Get(name string) (*Collection, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.cols[name]
	if !ok {
		return nil, ErrNotFound
	}
	return c, nil
}

// Names returns the collection names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.cols))
	for n := range s.cols {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Create installs (or atomically replaces) the named collection around a
// freshly built index and the vocabulary it was interned through,
// snapshotting it immediately when the store is persistent so that
// subsequent journaled inserts have a base to replay on. The collection owns
// voc from then on: its journal frames carry voc's ids, so a token interned
// into it by anything but the collection's own inserts is one no replay
// would hold.
func (s *Store) Create(name string, voc *gbkmv.Vocabulary, eng *gbkmv.Index) (*Collection, error) {
	if !nameRE.MatchString(name) {
		return nil, ErrBadName
	}
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.RLock()
	old := s.cols[name]
	s.mu.RUnlock()
	if old != nil {
		// Quiesce the collection being replaced *before* touching its
		// files: once its journal is closed, a concurrent insert on it
		// fails loudly instead of fsyncing an ack into a file the
		// replacement is about to delete.
		old.wal.close()
	}
	// revive gives the old collection its journal back when the replacement
	// never became visible: it stays live, and without one its inserts would
	// 500 forever.
	revive := func(why string) {
		if old != nil {
			if err := old.wal.reopen(old.gens.reopenJournal); err != nil {
				s.logf("gbkmvd: reopening journal of %q after %s replace: %v", name, why, err)
			}
		}
	}
	dir := ""
	if s.dir != "" {
		dir = filepath.Join(s.dir, name)
	}
	c := s.newCollection(name, dir, voc, eng)
	if dir != "" {
		if err := c.gens.chain(); err != nil {
			revive("aborted")
			return nil, fmt.Errorf("reading existing state of %q: %w", name, err)
		}
		committed := false
		err := c.gens.mkdir()
		if err == nil {
			release := c.wal.quiesce()
			committed, err = c.snapshot()
			release()
		}
		if err != nil && !committed {
			c.gens.discardNext()
			revive("failed")
			return nil, err
		}
		if err != nil {
			// Committed but the directory fsync failed: on disk the
			// replacement is what a restart will load, so install it in
			// memory too — reviving the old collection would journal
			// acknowledged inserts into a generation replay never reads.
			s.logf("gbkmvd: replacement of %q committed but not yet durable: %v", name, err)
		}
	}
	s.mu.Lock()
	s.cols[name] = c
	s.mu.Unlock()
	return c, nil
}

// Delete removes the named collection and its on-disk state.
func (s *Store) Delete(name string) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.Lock()
	c, ok := s.cols[name]
	delete(s.cols, name)
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	c.wal.close()
	s.metrics.removeCollection(name)
	return c.gens.removeAll()
}

// Snapshot persists the named collection's current state and truncates its
// journal (the snapshot subsumes it). Like every disk-mutating operation it
// runs under opMu, so it cannot interleave its writes with a concurrent
// replacement build of the same name; quiescing the wal first means no batch
// is left appended-but-unapplied when the journal is swapped out from under
// it.
func (s *Store) Snapshot(name string) (*Collection, error) {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	c, err := s.Get(name)
	if err != nil {
		return nil, err
	}
	if !c.gens.persistent() {
		return nil, ErrNoPersistence
	}
	release := c.wal.quiesce()
	defer release()
	_, err = c.snapshot()
	return c, err
}

// Close snapshots every collection with unsnapshotted inserts and closes all
// journals. Used on graceful shutdown. Followers never snapshot here: a
// replica's generation number must track the leader's, and advancing it
// unilaterally would force a full re-bootstrap on restart — a follower
// restart replays its local journal instead, then resumes the stream from
// its durable offset.
func (s *Store) Close() error {
	// Stop the background scrub/probe loop before taking opMu: a scrub pass
	// mid-repair holds opMu through Snapshot, and waiting for it while
	// holding the lock would deadlock.
	s.StopScrubber()
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	follower := s.role() != nil
	var first error
	for _, c := range s.cols {
		release := c.wal.quiesce()
		if !follower && c.gens.persistent() && c.wal.journaled() > 0 {
			if _, err := c.snapshot(); err != nil && first == nil {
				first = fmt.Errorf("snapshotting %q: %w", c.name, err)
			}
		}
		if err := c.wal.shut(); err != nil && first == nil {
			first = err
		}
		release()
	}
	return first
}
