package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
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

// Store holds the named collections of a gbkmvd instance. The collections
// map is guarded by mu; each collection guards its own index with a RWMutex
// so searches on one collection run concurrently with builds on another.
// Lifecycle operations (build, delete) are additionally serialized by opMu
// so concurrent PUTs to the same name cannot interleave their disk writes.
type Store struct {
	dir      string // data directory; "" disables persistence
	fs       fsx.FS // filesystem the journal and snapshot paths go through
	fileRoot string // root for server-side file builds; "" disables them
	cacheCap int    // prepared-query cache entries per collection; 0 disables
	// defaultSegments is the segment count of collections whose build names
	// none (options.segments == 0): 0 builds unsegmented single-index
	// collections, n >= 1 shards across n sub-indexes. A loaded snapshot
	// keeps the layout it was written with, whatever the default is.
	defaultSegments int
	logf            func(format string, args ...any)

	metrics     *Metrics     // always non-nil; see metrics.go
	ready       atomic.Bool  // set once startup loading finished (readiness)
	slowQueryNs atomic.Int64 // slow-query log threshold; 0 disables

	// Replica role (see repl_apply.go): leaderURL non-empty fences every
	// write endpoint behind a redirect to the leader; readyCheck, when set,
	// extends /readyz with the follower's bootstrap/lag gate; replStats,
	// when set, annotates /stats with per-collection replication state;
	// promoteFn, when set, is what POST /promote runs; chainDepth is this
	// node's distance from the true leader (0 on the leader).
	leaderURL  atomic.Value // string
	readyCheck atomic.Value // func() (bool, string)
	replStats  atomic.Value // func(name string) *ReplStats
	promoteFn  atomic.Value // func() error
	chainDepth atomic.Int64

	// Graceful degradation (see middleware.go and handlers.go): per-request
	// deadline and response write deadline in nanoseconds (0 disables), and
	// a bounded in-flight-insert gate that sheds with 503 instead of
	// queueing unboundedly.
	requestTimeoutNs atomic.Int64
	writeTimeoutNs   atomic.Int64
	insertGate       atomic.Value // chan struct{} (buffered semaphore)

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

// SetRequestTimeout bounds every request (except the deliberately
// long-running replication endpoints) with a context deadline; handlers shed
// with 503 + Retry-After once it passes. Zero (the default) disables it.
func (s *Store) SetRequestTimeout(d time.Duration) { s.requestTimeoutNs.Store(d.Nanoseconds()) }

// SetResponseWriteTimeout bounds how long a response write may take for
// non-long-poll endpoints (slowloris/stuck-reader protection applied
// per-request, since a server-wide WriteTimeout would kill WAL long-polls).
// Zero disables it.
func (s *Store) SetResponseWriteTimeout(d time.Duration) { s.writeTimeoutNs.Store(d.Nanoseconds()) }

// SetMaxInflightInserts bounds concurrently served insert requests: past the
// bound the insert endpoint sheds with 503 + Retry-After instead of piling
// more batches onto the commit queue. Zero (the default) means unbounded.
func (s *Store) SetMaxInflightInserts(n int) {
	if n <= 0 {
		s.insertGate.Store((chan struct{})(nil))
		return
	}
	s.insertGate.Store(make(chan struct{}, n))
}

// acquireInsertSlot claims an in-flight-insert slot. ok=false means the gate
// is full and the request must be shed; release is non-nil iff a slot was
// actually claimed.
func (s *Store) acquireInsertSlot() (release func(), ok bool) {
	gate, _ := s.insertGate.Load().(chan struct{})
	if gate == nil {
		return nil, true
	}
	select {
	case gate <- struct{}{}:
		return func() { <-gate }, true
	default:
		return nil, false
	}
}

// NewStore opens a store over the data directory, reloading every collection
// previously snapshotted there (latest snapshot plus journal replay). An
// empty dir yields a memory-only store. Collections that fail to load are
// skipped with a logged warning rather than failing startup.
func NewStore(dir string, logf func(format string, args ...any)) (*Store, error) {
	return NewStoreWithFS(dir, nil, logf)
}

// NewStoreWithFS is NewStore with an injected filesystem (nil means the real
// one) — the entry point of the disk-chaos tests.
func NewStoreWithFS(dir string, fsys fsx.FS, logf func(format string, args ...any)) (*Store, error) {
	return OpenStore(dir, StoreOptions{FS: fsys, Logf: logf})
}

// StoreOptions configures OpenStore. The zero value matches NewStore.
type StoreOptions struct {
	// FS injects a filesystem (nil means the real one).
	FS fsx.FS
	// Logf receives startup and operational log lines (nil means log.Printf).
	Logf func(format string, args ...any)
	// Segments is the default segment count for collections whose build
	// requests name none (0 builds single-index collections). It applies to
	// builds only: a snapshot loads with the layout it was written with.
	Segments int
}

// OpenStore opens a store over the data directory with explicit options,
// reloading every collection previously snapshotted there.
func OpenStore(dir string, o StoreOptions) (*Store, error) {
	logf := o.Logf
	fsys := o.FS
	if logf == nil {
		logf = log.Printf
	}
	if fsys == nil {
		fsys = fsx.Default
	}
	s := &Store{dir: dir, fs: fsys, cacheCap: DefaultQueryCacheEntries,
		defaultSegments: o.Segments, logf: logf, cols: make(map[string]*Collection)}
	s.metrics = newMetrics()
	s.metrics.reg.OnScrape(s.mirrorCollections)
	if dir == "" {
		s.ready.Store(true)
		return s, nil
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cdir := filepath.Join(dir, e.Name())
		if _, err := fsys.Stat(filepath.Join(cdir, "meta.json")); err != nil {
			continue // not a collection directory
		}
		c, err := loadCollection(fsys, cdir, s.logf)
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
		s.attach(c, s.cacheCap)
		s.cols[c.name] = c
		s.logf("gbkmvd: loaded collection %q: engine %s, %d records, %d replayed from journal (verify + read %s, derive %s, replay %s)",
			c.name, c.eng.EngineName(), c.eng.Len(), c.journaled, c.readDur.Round(time.Millisecond),
			c.deriveDur.Round(time.Millisecond), c.replayDur.Round(time.Millisecond))
	}
	s.ready.Store(true)
	return s, nil
}

// attach wires a freshly constructed collection into the store's metric
// surface: per-collection children resolve once here, the prepared-query
// cache is created around the registry's counters, and one-shot load
// telemetry (replay duration, torn-tail recovery) is booked.
func (s *Store) attach(c *Collection, cacheCap int) {
	c.store = s
	if c.fs == nil {
		c.fs = s.fs
	}
	c.engName = c.eng.EngineName()
	c.metrics = s.metrics.collMetricsFor(c.name)
	if seg, ok := c.eng.(*gbkmv.Segmented); ok {
		// Per-segment snapshot encode durations are the collection's write
		// pauses once segmented — each segment is locked only while its own
		// sub-index serializes.
		m := c.metrics
		seg.SetSaveObserver(func(_ int, d time.Duration) { m.observeSnapPause(d) })
	}
	c.qcache = newQueryCacheWith(cacheCap, c.metrics.qcHits, c.metrics.qcMisses, c.metrics.qcEvictions)
	s.metrics.replaySecs.With(c.name).Set(c.replayDur.Seconds())
	if c.tornTail {
		s.metrics.tornTails.With(c.name).Inc()
	}
	if g := c.quarantinedGen.Load(); g != 0 {
		// Load quarantined a corrupt generation and fell back; book the
		// load-stage verification failure and the event.
		s.metrics.verifyFails.With(c.name, "load").Inc()
		s.noteQuarantine(c.name, g, "load", c.loadDetail)
	}
}

// DefaultSegments returns the segment count applied when a build request
// leaves options.segments at 0. Zero means unsegmented single-index
// collections.
func (s *Store) DefaultSegments() int { return s.defaultSegments }

// DefaultQueryCacheEntries is the per-collection prepared-query cache size
// used when SetQueryCacheSize was never called.
const DefaultQueryCacheEntries = 4096

// SetQueryCacheSize sets the prepared-query cache capacity (entries per
// collection; 0 disables caching) for collections created or loaded from now
// on, and swaps the cache of every existing collection. Safe to call while
// serving: the swap runs under each collection's write lock.
func (s *Store) SetQueryCacheSize(entries int) {
	if entries < 0 {
		entries = 0
	}
	s.mu.Lock()
	s.cacheCap = entries
	cols := make([]*Collection, 0, len(s.cols))
	for _, c := range s.cols {
		cols = append(cols, c)
	}
	s.mu.Unlock()
	for _, c := range cols {
		c.mu.Lock()
		if c.metrics != nil {
			// Keep the registry counters across the swap: the cache totals
			// belong to the collection, not to one cache instance.
			c.qcache = newQueryCacheWith(entries, c.metrics.qcHits, c.metrics.qcMisses, c.metrics.qcEvictions)
		} else {
			c.qcache = newQueryCache(entries)
		}
		c.mu.Unlock()
	}
}

// SetRecordFileRoot enables PUT builds from server-side files, restricted
// to paths under root. Without it, file builds are rejected: an
// unauthenticated API must not be allowed to read arbitrary server files.
func (s *Store) SetRecordFileRoot(root string) error {
	abs, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	// Resolve the root itself so the containment check below compares
	// like with like.
	resolved, err := filepath.EvalSymlinks(abs)
	if err != nil {
		return err
	}
	s.fileRoot = resolved
	return nil
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
// freshly built engine and the vocabulary it was interned through,
// snapshotting it immediately when the store is persistent so that
// subsequent journaled inserts have a base to replay on.
func (s *Store) Create(name string, voc *gbkmv.Vocabulary, eng gbkmv.Engine) (*Collection, error) {
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
		old.closeJournal()
	}
	s.mu.RLock()
	cacheCap := s.cacheCap
	s.mu.RUnlock()
	c := &Collection{name: name, voc: voc, eng: eng, requests: newRequestLog()}
	s.attach(c, cacheCap)
	if s.dir != "" {
		c.dir = filepath.Join(s.dir, name)
		// Chain generations past any state already on disk so the new
		// snapshot's commit (the meta.json rename) atomically supersedes
		// it. A meta.json that exists but cannot be read means the
		// committed generation is unknown — abort rather than risk the
		// failure path sweeping files the commit record still names.
		switch m, err := readMeta(s.fs, c.dir); {
		case err == nil:
			c.gen = m.Generation
		case errors.Is(err, os.ErrNotExist):
		default:
			if old != nil {
				if rerr := old.reopenJournal(); rerr != nil {
					s.logf("gbkmvd: reopening journal of %q after aborted replace: %v", name, rerr)
				}
			}
			return nil, fmt.Errorf("reading existing state of %q: %w", name, err)
		}
		committed := false
		err := func() error {
			if err := s.fs.MkdirAll(c.dir, 0o755); err != nil {
				return err
			}
			var err error
			committed, err = c.snapshot()
			return err
		}()
		if err != nil && !committed {
			// The replacement never became visible; remove its aborted
			// generation's files explicitly — the stale sweep deliberately
			// never touches generations newer than the commit record, so
			// the abort path must clean up after itself. The old collection
			// stays live, so give it its journal back or its inserts would
			// 500 forever.
			removeGeneration(s.fs, c.dir, c.gen+1)
			if old != nil {
				if rerr := old.reopenJournal(); rerr != nil {
					s.logf("gbkmvd: reopening journal of %q after failed replace: %v", name, rerr)
				}
			}
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
	c.closeJournal()
	s.metrics.removeCollection(name)
	if c.dir != "" {
		return s.fs.RemoveAll(c.dir)
	}
	return nil
}

// Snapshot persists the named collection's current state and truncates its
// journal (the snapshot subsumes it). Like every disk-mutating operation it
// runs under opMu, so it cannot interleave its writes with a concurrent
// replacement build of the same name. Taking the commit leader lock and
// draining the open group first quiesces in-flight group commits: no batch
// is left appended-but-unapplied when the journal is swapped out from under
// it.
func (s *Store) Snapshot(name string) (*Collection, error) {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	c, err := s.Get(name)
	if err != nil {
		return nil, err
	}
	if c.dir == "" {
		return nil, ErrNoPersistence
	}
	c.commit.syncMu.Lock()
	defer c.commit.syncMu.Unlock()
	c.drainPending()
	defer c.ioMu.Unlock()
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
	follower := s.FollowerLeader() != ""
	var first error
	for _, c := range s.cols {
		c.commit.syncMu.Lock()
		c.drainPending() // returns with ioMu held
		c.mu.RLock()
		needsSnapshot := !follower && c.dir != "" && c.journaled > 0
		c.mu.RUnlock()
		if needsSnapshot {
			if _, err := c.snapshot(); err != nil && first == nil {
				first = fmt.Errorf("snapshotting %q: %w", c.name, err)
			}
		}
		c.closed = true
		if c.journal != nil {
			if err := c.journal.Close(); err != nil && first == nil {
				first = err
			}
			c.journal = nil
		}
		c.walChangedLocked() // wake long-polled wal streams so they observe the close
		c.ioMu.Unlock()
		c.commit.syncMu.Unlock()
	}
	return first
}

// Collection is one named index behind two locks plus the group-commit
// leader lock. mu is the index RWMutex: searches take the read lock and run
// concurrently, mutations take the write lock. ioMu serializes journal
// appends and index applies (append order == id-assignment order, which
// replay depends on) but — unlike earlier revisions — is NOT held across
// the fsync: concurrent inserts append under ioMu, join the open commit
// group, and share one batched fsync driven by the group's leader under
// commit.syncMu (see Insert). Lock order: opMu → syncMu → ioMu → mu.
type Collection struct {
	name string
	dir  string // collection directory; "" when the store is memory-only
	fs   fsx.FS // filesystem for journal/snapshot I/O; nil means the real one

	// Observability wiring, set by Store.attach; all nil/zero (and therefore
	// inert) for collections assembled outside a store, e.g. in unit tests.
	store      *Store        // owning store, for disk-error/quarantine accounting
	metrics    *collMetrics  // resolved per-collection metric children
	engName    string        // engine name, cached for the request trace
	readDur    time.Duration // startup: snapshot files verified and read (load only)
	deriveDur  time.Duration // startup: engine state derived from what was read (load only)
	replayDur  time.Duration // startup journal replay duration (load only)
	tornTail   bool          // startup replay truncated a torn journal tail
	loadDetail string        // why load quarantined a generation, for the event log

	// Storage-integrity state (see integrity.go). derived records snapshot
	// lineage: true when the in-memory state was produced from the on-disk
	// committed generation (load, or any previous snapshot commit), so the
	// next snapshot may name it as its Parent — the fallback target; false
	// for a fresh build, whose snapshot supersedes everything on disk.
	// readOnly flips on ENOSPC/EIO-class write failures; quarantinedGen is
	// the corrupt generation detected at load or by the scrubber, cleared by
	// the next committed snapshot.
	derived        bool // guarded by mu
	readOnly       atomic.Bool
	roReason       atomic.Value // string
	quarantinedGen atomic.Uint64
	// snapBytes is the size of the snapshot files (index + vocabulary) of the
	// generation the state was last saved to or loaded from.
	snapBytes atomic.Int64

	ioMu     sync.Mutex     // guards journal appends, closed, requests, commit.pending
	journal  *journalWriter // inserts since the current snapshot; nil when dir == ""
	closed   bool           // set when the collection is replaced, deleted or shut down
	requests *requestLog    // recent insert request ids, for retry rejection
	commit   commitState    // group-commit machinery; see Insert

	// Replication stream state, guarded by ioMu (see repl_leader.go).
	// walNotify is closed whenever the durable WAL frontier moves — a commit
	// group fsyncs, a snapshot swaps generations, the journal closes — waking
	// long-polled wal streams. prevGen/prevGenFinal record the previous
	// generation and its final synced offset across a snapshot, so a follower
	// that fully applied the old journal can hand off to the new generation
	// without re-bootstrapping.
	walNotify    chan struct{}
	prevGen      uint64
	prevGenFinal int64

	mu        sync.RWMutex
	voc       *gbkmv.Vocabulary
	eng       gbkmv.Engine
	qcache    *queryCache // prepared-query cache; nil when disabled
	gen       uint64      // generation of the current on-disk snapshot
	journaled int         // entries in the current journal

	// queryGen is the query generation: the cache key epoch of the engine's
	// in-memory state, bumped inside the write-lock critical section of every
	// engine mutation (applyBatch). It is deliberately distinct from gen (the
	// on-disk snapshot generation): a snapshot changes no query result and
	// must not blow the cache, while an insert changes results without
	// touching gen. Build and reload invalidate by construction — they
	// install a fresh Collection with an empty cache.
	queryGen atomic.Uint64
}

// commitState is the group-commit machinery of one collection.
type commitState struct {
	// syncMu is the leader lock: held by exactly one commit group's leader
	// across flush, fsync and apply, it serializes groups in formation
	// order. Snapshot/close take it to quiesce in-flight commits.
	syncMu sync.Mutex
	// pending is the open group accepting members; guarded by ioMu. Every
	// batch that appended frames since the previous group was sealed is a
	// member, so the seal-time flush covers exactly the members' frames.
	pending *commitGroup
	// inflight maps a request id to its not-yet-applied batch (guarded by
	// ioMu). The requests window only learns ids at apply time, which —
	// since the fsync left ioMu — is after Insert releases the lock; a
	// retry racing that gap finds its original here and waits for its
	// group instead of slipping past the duplicate check.
	inflight map[string]*inflightInsert
}

// inflightInsert is one request-tagged batch between journal append and
// index apply: the retry-dedup handle for the commit window.
type inflightInsert struct {
	batch *commitBatch
	done  chan struct{} // the batch's commit group's done channel
}

// commitGroup is one shared fsync: the batches whose frames ride it.
type commitGroup struct {
	members  []*commitBatch
	detached bool // sealed for processing (by its leader or a drain); ioMu
	done     chan struct{}
}

// commitBatch is one Insert call's slot in its commit group.
type commitBatch struct {
	tokens [][]string
	rid    string
	ids    []int // assigned in apply order == journal order
	err    error
}

// maxRememberedRequests bounds the duplicate-detection window: ids beyond it
// age out oldest-first. The window exists for the WAL-ambiguity retry (which
// arrives promptly), not as a general idempotency ledger.
const maxRememberedRequests = 1024

// requestLog remembers the record ids assigned to recent request-tagged
// inserts, in arrival order. Batch ids are always consecutive (every
// engine's AddBatch assigns them that way), so each request is one
// (first, count) span — a tagged 100k-record batch costs two integers here
// and in the meta.json commit record, not 100k. It carries its own lock so
// the commit leader can record ids during the apply phase without holding
// the collection's ioMu (which would stall the next group's appends).
type requestLog struct {
	mu    sync.Mutex
	ids   map[string]idSpan
	order []string
}

// idSpan is the consecutive id range one insert batch was assigned.
type idSpan struct {
	first, count int
}

func (s idSpan) materialize() []int {
	ids := make([]int, s.count)
	for i := range ids {
		ids[i] = s.first + i
	}
	return ids
}

func newRequestLog() *requestLog {
	return &requestLog{ids: make(map[string]idSpan)}
}

func (l *requestLog) get(rid string) ([]int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.ids[rid]
	if !ok {
		return nil, false
	}
	return s.materialize(), true
}

func (l *requestLog) add(rid string, first, count int) {
	if rid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.ids[rid]; !dup {
		l.order = append(l.order, rid)
	}
	l.ids[rid] = idSpan{first: first, count: count}
	for len(l.order) > maxRememberedRequests {
		delete(l.ids, l.order[0])
		l.order = l.order[1:]
	}
}

// entries snapshots the remembered spans in arrival order (for the meta
// commit record).
func (l *requestLog) entries() []requestEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]requestEntry, 0, len(l.order))
	for _, rid := range l.order {
		s := l.ids[rid]
		out = append(out, requestEntry{ID: rid, First: s.first, Count: s.count})
	}
	return out
}

// Hit is one search result.
type Hit struct {
	ID       int      `json:"id"`
	Estimate float64  `json:"estimate"`
	Tokens   []string `json:"tokens,omitempty"`
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// fsys returns the collection's filesystem, defaulting to the real one for
// collections assembled outside a store.
func (c *Collection) fsys() fsx.FS {
	if c.fs != nil {
		return c.fs
	}
	return fsx.Default
}

// Engine returns the name of the engine backing the collection.
func (c *Collection) Engine() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.eng.EngineName()
}

// preparedRaw returns a prepared query for a request's verbatim query JSON.
// The hot path is the exact-bytes (L1) lookup: a repeated query skips the
// per-token JSON decode, the canonicalization *and* the sketch. On an L1
// miss the tokens are read once, as bytes into sc, and resolved through the
// canonical (L2) key — preparing only if that misses too — and the raw key is
// installed as an alias to the shared prepared query so the next
// byte-identical request takes the fast path. Caller must hold at least the
// read lock (which is what makes the generation read exact: writers bump
// queryGen under the write lock, so a cache hit is always against the engine
// state it was prepared under). The returned query is private to the caller.
// tr, when non-nil, receives the cache outcome and token count (-1 when the
// raw-bytes hit skipped decoding) for the request trace.
func (c *Collection) preparedRaw(raw []byte, sc *qkeyScratch, tr *reqTrace) (gbkmv.PreparedQuery, error) {
	gen := c.queryGen.Load()
	var rawKey []byte
	if c.qcache != nil {
		rawKey = rawQueryKey(raw, sc)
		if shared, ok := c.qcache.lookup(gen, rawKey); ok {
			c.qcache.hits.Add(1)
			if tr != nil {
				tr.tokens = -1 // raw-bytes hit: tokens were never decoded
				tr.cache = cacheHit
			}
			return shared.Clone(), nil
		}
	}
	tokens, err := sc.tokenize(raw)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.tokens = tokens
	}
	if c.qcache == nil || tokens > maxCachedQueryTokens {
		// No cache, or too large to cache under either key; prepare uncached.
		if tr != nil {
			tr.cache = cacheOff
		}
		return sc.prepare(c.eng, c.voc)
	}
	key := sc.canonicalKey()
	if shared, ok := c.qcache.lookup(gen, key); ok {
		c.qcache.hits.Add(1)
		if tr != nil {
			tr.cache = cacheHit
		}
		c.qcache.put(gen, rawKey, shared)
		return shared.Clone(), nil
	}
	c.qcache.misses.Add(1)
	if tr != nil {
		tr.cache = cacheMiss
	}
	pq, err := sc.prepare(c.eng, c.voc)
	if err != nil {
		return nil, err
	}
	c.qcache.put(gen, key, pq)
	c.qcache.put(gen, rawKey, pq)
	return pq.Clone(), nil
}

// appendHits materializes scored results as Hits into dst (callers pass a
// pooled buffer). Caller holds the read lock.
func (c *Collection) appendHits(dst []Hit, scored []gbkmv.Scored, withTokens bool) []Hit {
	for _, s := range scored {
		h := Hit{ID: s.ID, Estimate: s.Score}
		if withTokens {
			h.Tokens = c.voc.Tokens(c.eng.Record(s.ID))
		}
		dst = append(dst, h)
	}
	return dst
}

// SearchRaw returns records with estimated containment ≥ threshold, scored, in
// ascending id order, together with the total number of qualifying records,
// appending the materialized hits to dst (pass nil, or a pooled buffer, to
// bound steady-state allocation). limit > 0 caps the hits that are scored
// and materialized — a threshold-0 query against a large collection must not
// pay O(N) estimates and token slices for a page of 10. Each returned hit is
// estimated exactly once: the engine's scored search reports the estimate
// that decided membership during the candidate walk.
//
// The query is its verbatim request JSON (an array of token strings), which
// lets a repeated query resolve through the exact-bytes cache key without
// decoding tokens at all. tr, when non-nil, receives the request trace (cache
// outcome, per-search work counters).
func (c *Collection) SearchRaw(rawQuery []byte, threshold float64, limit int, withTokens bool, dst []Hit, tr *reqTrace) (hits []Hit, total int, err error) {
	rs := getResp()
	defer putResp(rs)
	return c.answer(rs, rawQuery, querySpec{threshold: threshold, limit: limit, withTokens: withTokens}, dst, tr)
}

// TopKRaw returns the k best records by estimated containment, best first,
// appending to dst and taking the query as SearchRaw does.
func (c *Collection) TopKRaw(rawQuery []byte, k int, withTokens bool, dst []Hit, tr *reqTrace) ([]Hit, error) {
	rs := getResp()
	defer putResp(rs)
	hits, _, err := c.answer(rs, rawQuery, querySpec{topk: true, k: k, withTokens: withTokens}, dst, tr)
	return hits, err
}

// answer is the body of SearchRaw and TopKRaw, working in the caller's
// scratch: the query's keys and tokens and the engine's scored results live
// in rs, so a steady-state request allocates nothing between its body and
// its response but the clone of the cached query.
func (c *Collection) answer(rs *respScratch, rawQuery []byte, sp querySpec, dst []Hit, tr *reqTrace) (hits []Hit, total int, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	q, err := c.preparedRaw(rawQuery, &rs.qkey, tr)
	if err != nil {
		return nil, 0, err
	}
	rs.scored, total = sp.run(q, rs.scored[:0])
	c.noteSearch(q, tr)
	return c.appendHits(dst, rs.scored, sp.withTokens), total, nil
}

// run answers the request on a private prepared query, appending to dst.
// total counts every qualifying record of a threshold search, and is 0 for a
// top-k.
func (sp querySpec) run(q gbkmv.PreparedQuery, dst []gbkmv.Scored) (scored []gbkmv.Scored, total int) {
	if sp.topk {
		return q.AppendTopK(dst, sp.k), 0
	}
	return q.AppendSearchScored(dst, sp.threshold, sp.limit)
}

// noteSearch books a finished search's work counters into the collection's
// metrics and, when tr is non-nil, the request trace. q must be the private
// clone the search just ran on (its counters are private to this goroutine
// per the concurrency contract). Only gbkmv and gkmv count their work; a
// search of any other engine books a sample of zeros.
func (c *Collection) noteSearch(q gbkmv.PreparedQuery, tr *reqTrace) {
	if c.metrics == nil && tr == nil {
		return
	}
	st := q.QueryStats()
	c.metrics.observeSearch(st)
	if tr != nil {
		tr.stats.candidates = st.Candidates
		tr.stats.pruned = st.PrunedByBound
		tr.stats.estimated = st.Estimated
		tr.stats.bufferAccepts = st.BufferAccepts
	}
}

// BatchResult is one query's slot in a batch search or top-k response: its
// hits, the total qualifying count (searches only), or the per-query error.
// Queries are independent — one empty query fails its slot, not the batch.
type BatchResult struct {
	Hits  []Hit
	Total int
	Err   error
}

// batchSlot is one *distinct* query of a batch: duplicates within the batch
// share a slot, so each distinct query is prepared (or cache-hit) exactly
// once — lazily, by whichever worker reaches it first, so a cold batch's
// sketching work parallelizes along with its searches instead of running
// serially before the fan-out.
type batchSlot struct {
	raw  []byte
	once sync.Once
	pq   gbkmv.PreparedQuery
	err  error
}

// prepared resolves the slot's query, preparing on first use (query
// sketching is a read: engines allow concurrent PrepareQuery, exactly as
// the core SearchBatch's workers sketch concurrently) in the calling worker's
// scratch. Duplicate queries block on the first worker's prepare and then
// share the result.
func (s *batchSlot) prepared(c *Collection, sc *qkeyScratch) (gbkmv.PreparedQuery, error) {
	// No trace here: slots are prepared by racing workers, and the batch
	// trace is aggregated at the request level, not per slot.
	s.once.Do(func() { s.pq, s.err = c.preparedRaw(s.raw, sc, nil) })
	return s.pq, s.err
}

// dedupBatch groups the batch into distinct-query slots (detected on the
// verbatim query bytes; permuted duplicates still share a signature through
// the cache's canonical key) and maps every batch position to its slot.
func dedupBatch(queries [][]byte) ([]batchSlot, []int) {
	slots := make([]batchSlot, 0, len(queries))
	idx := make([]int, len(queries))
	seen := make(map[string]int, len(queries))
	for i, raw := range queries {
		if j, ok := seen[string(raw)]; ok {
			idx[i] = j
			continue
		}
		slots = append(slots, batchSlot{raw: raw})
		seen[string(raw)] = len(slots) - 1
		idx[i] = len(slots) - 1
	}
	return slots, idx
}

// runBatch fans the per-query work out across a bounded worker pool under
// the single read-lock acquisition the caller amortizes over the batch.
// Workers clone their slot's prepared query per use (clones are cheap and
// the shared instance is never mutated), and the engine's pooled scratch
// machinery hands each in-flight query its own working memory.
func runBatch(n int, run func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// batch answers every query of a search:batch or topk:batch request — each
// the verbatim JSON of its token array, as SearchRaw takes it — under one
// read-lock acquisition: each distinct query is prepared once (through the
// cache when enabled), then the batch fans out across a bounded worker pool.
// Results are in input order. A ctx deadline passing mid-batch fails the
// remaining slots (each carries the context error) instead of running the
// batch to completion against a client that already gave up; a nil ctx never
// expires.
func (c *Collection) batch(ctx context.Context, queries [][]byte, sp querySpec) []BatchResult {
	out := make([]BatchResult, len(queries))
	c.metrics.observeBatch(len(queries))
	c.mu.RLock()
	defer c.mu.RUnlock()
	slots, idx := dedupBatch(queries)
	runBatch(len(queries), func(i int) {
		if ctx != nil && ctx.Err() != nil {
			out[i].Err = ctx.Err()
			return
		}
		rs := getResp()
		defer putResp(rs)
		pq, err := slots[idx[i]].prepared(c, &rs.qkey)
		if err != nil {
			out[i].Err = err
			return
		}
		cl := pq.Clone()
		rs.scored, out[i].Total = sp.run(cl, rs.scored[:0])
		c.noteSearch(cl, nil)
		out[i].Hits = c.appendHits(make([]Hit, 0, len(rs.scored)), rs.scored, sp.withTokens)
	})
	return out
}

// Insert adds a batch of records dynamically through the group-commit
// journal: frames are appended (buffered) under ioMu, the batch joins the
// open commit group, and the group's leader — the batch that opened it —
// flushes once and fsyncs once for every member, outside ioMu, so inserts
// arriving during an fsync form the next group instead of queueing behind
// the disk. Followers just wait for the group's completion. After the fsync
// the leader applies every member in journal order (vocabulary interning
// and engine AddBatch under the write lock), which keeps id assignment
// identical to what replay reproduces. Acknowledgement still strictly
// follows durability: no batch returns (and no search can observe its
// records) before its frames are fsynced. Returns the new record ids in
// batch order.
//
// A failed flush or fsync fails every batch whose frames were not yet
// durable and rolls the journal back to the durable high-water mark, so
// entries on disk never outrun the acknowledged index state.
//
// A non-empty requestID closes the WAL-ambiguity window: the id is echoed
// into every journal frame of the batch and remembered (surviving both
// snapshots, via the meta commit record, and restarts, via journal replay),
// so a client retrying an insert whose acknowledgement was lost in a crash
// gets ErrDuplicateRequest — with the originally assigned ids — instead of
// silently duplicated records.
func (c *Collection) Insert(batch [][]string, requestID string) ([]int, error) {
	// Validate before touching the vocabulary or the journal: a rejected
	// batch must leave no trace. (A record is empty iff it has no tokens —
	// every token interns to an element.) An empty batch is rejected too:
	// it has no ids to acknowledge or remember.
	if len(batch) == 0 {
		return nil, errors.New("empty batch")
	}
	for i, tokens := range batch {
		if len(tokens) == 0 {
			return nil, fmt.Errorf("record %d is empty", i)
		}
	}
	// Encode the journal frames before taking the append lock: marshaling
	// is CPU work that concurrent inserts should overlap, not queue on.
	frames, encErr := encodeBatch(batch, requestID)
	c.ioMu.Lock()
	if requestID != "" {
		if ids, seen := c.requests.get(requestID); seen {
			c.ioMu.Unlock()
			return ids, ErrDuplicateRequest
		}
		if inf, ok := c.commit.inflight[requestID]; ok {
			// The original is appended but not yet applied (its group is
			// still committing): the requests window cannot answer yet, so
			// wait for the group and answer from the original batch. The
			// pre-group-commit code closed this window by holding ioMu
			// across append+fsync+apply; the registry restores that
			// guarantee without the lock.
			c.ioMu.Unlock()
			<-inf.done
			if inf.batch.err != nil {
				// The original never committed; nothing was inserted, and
				// the registry entry is gone, so a later retry may proceed.
				return nil, inf.batch.err
			}
			return inf.batch.ids, ErrDuplicateRequest
		}
	}
	if c.closed || (c.dir != "" && c.journal == nil) {
		// The collection was closed, deleted or replaced while this
		// handler held it. Applying the batch would acknowledge records
		// that exist nowhere a later reader looks.
		c.ioMu.Unlock()
		return nil, fmt.Errorf("%w: collection %q is closed", ErrStorage, c.name)
	}
	b := &commitBatch{tokens: batch, rid: requestID}
	if c.journal == nil {
		// Memory-only store: nothing to make durable, apply in place.
		c.applyBatch(b)
		c.ioMu.Unlock()
		return b.ids, b.err
	}
	if encErr != nil {
		c.ioMu.Unlock()
		return nil, encErr // errEntryTooLarge or a marshal failure: client-side, nothing written
	}
	if err := c.journal.appendFrames(frames); err != nil {
		c.noteDiskError("journal_append", err)
		err = fmt.Errorf("%w: journal append: %v", ErrStorage, err)
		// The buffered writer is poisoned (sticky error): nothing after the
		// partial write enters the stream. If a commit is in flight, its
		// flush will surface the failure and heal the journal through the
		// rollback in commitGroup. If no commit is in flight, nothing would
		// ever flush again — heal here instead. TryLock makes the two cases
		// mutually exclusive without blocking: holding syncMu guarantees no
		// fsync can race the rollback's truncation, and a failed TryLock
		// proves a leader exists to do the healing.
		if c.commit.syncMu.TryLock() {
			c.failPendingLocked(err)
			c.commit.syncMu.Unlock()
		}
		c.ioMu.Unlock()
		return nil, err
	}
	c.metrics.addWAL(len(frames), len(batch))
	g := c.commit.pending
	leader := g == nil
	if leader {
		g = &commitGroup{done: make(chan struct{})}
		c.commit.pending = g
	}
	g.members = append(g.members, b)
	if requestID != "" {
		if c.commit.inflight == nil {
			c.commit.inflight = make(map[string]*inflightInsert)
		}
		c.commit.inflight[requestID] = &inflightInsert{batch: b, done: g.done}
	}
	c.ioMu.Unlock()
	if !leader {
		<-g.done
		return b.ids, b.err
	}
	c.commit.syncMu.Lock()
	c.ioMu.Lock()
	if g.detached {
		// A snapshot or shutdown drained the group while this leader waited
		// for the previous one; the batch results are already settled.
		c.ioMu.Unlock()
		c.commit.syncMu.Unlock()
		<-g.done
		return b.ids, b.err
	}
	c.commitGroup(g, false)
	c.ioMu.Unlock()
	c.commit.syncMu.Unlock()
	return b.ids, b.err
}

// commitGroup seals g, makes its frames durable, applies its batches in
// journal order and signals the waiters. Called with ioMu and syncMu held;
// returns with ioMu held and g.done closed.
//
// With holdIoMu false — the leader path — only the seal and the buffer
// flush run under ioMu (the buffered writer is shared with appends); the
// fsync and the apply loop run with the lock released, so batches arriving
// at any point during the commit append their frames and form the next
// group. The write path thereby pipelines into at most one fsync plus one
// apply phase in flight, with appends never stalling behind either, and
// order stays intact because applies happen only here, under syncMu, group
// by group in seal order. With holdIoMu true — the drain paths, which are
// rare and already pause the collection — the whole commit runs under the
// lock.
//
// On a flush or fsync failure the group's batches — and any batch that
// appended behind them, whose frames can no longer become durable in order
// — are failed, and the journal rolls back to the durable high-water mark.
func (c *Collection) commitGroup(g *commitGroup, holdIoMu bool) {
	g.detached = true
	if c.commit.pending == g {
		c.commit.pending = nil
	}
	c.metrics.observeGroup(len(g.members))
	err := c.journal.Flush()
	stage := "journal flush"
	if !holdIoMu {
		c.ioMu.Unlock()
	}
	if err == nil {
		syncStart := time.Now()
		if serr := c.journal.SyncFile(); serr != nil {
			err, stage = serr, "journal sync"
		} else {
			c.metrics.observeFsync(time.Since(syncStart))
		}
	}
	if err != nil {
		// ENOSPC/EIO here degrades the collection to read-only (writes shed,
		// reads keep serving) until the storage probe sees the disk heal.
		c.noteDiskError(strings.ReplaceAll(stage, " ", "_"), err)
	}
	if err == nil && !holdIoMu {
		for _, b := range g.members {
			c.applyBatch(b)
		}
	}
	if !holdIoMu {
		c.ioMu.Lock()
	}
	if err != nil {
		failure := fmt.Errorf("%w: %s: %v", ErrStorage, stage, err)
		for _, b := range g.members {
			b.err = failure
		}
		c.failPendingLocked(failure)
	} else if holdIoMu {
		for _, b := range g.members {
			c.applyBatch(b)
		}
	}
	if err == nil {
		// The durable frontier advanced: wake long-polled WAL streams.
		c.walChangedLocked()
	}
	c.clearInflightLocked(g)
	close(g.done)
}

// clearInflightLocked drops a terminated group's batches from the retry
// registry (under ioMu). Ordering makes the registry gap-free: entries are
// removed only after applyBatch recorded the ids in the requests window (or
// after the batch failed), so a retry always finds one of the two.
func (c *Collection) clearInflightLocked(g *commitGroup) {
	for _, b := range g.members {
		if b.rid != "" {
			delete(c.commit.inflight, b.rid)
		}
	}
}

// applyBatch interns and applies one batch, assigning record ids in exactly
// the order the batch's frames entered the journal — the invariant replay
// depends on (callers are the commit leader under syncMu, the drain paths,
// and the memory-only insert under ioMu; all apply in append order). The
// engine mutation takes the write lock; searches block only for this
// in-memory apply, never for I/O.
func (c *Collection) applyBatch(b *commitBatch) {
	recs := make([]gbkmv.Record, len(b.tokens))
	for i, tokens := range b.tokens {
		recs[i] = c.voc.Record(tokens)
	}
	c.mu.Lock()
	b.ids = c.eng.AddBatch(recs)
	if c.journal != nil {
		c.journaled += len(b.tokens)
	}
	// Bump the query generation before the new records become visible (the
	// write lock is still held): searches load the generation under the read
	// lock, so no cached pre-insert answer can ever be served post-insert.
	c.queryGen.Add(1)
	c.mu.Unlock()
	c.requests.add(b.rid, b.ids[0], len(b.ids))
}

// failPendingLocked handles a durability failure under syncMu+ioMu: the
// open group's batches (appended but never synced) are failed, and the
// journal rolls back to its durable high-water mark so on-disk entries
// never outrun the acknowledged state. A successful rollback also heals a
// poisoned buffered writer, so the journal keeps serving once the disk
// recovers; if even the rollback fails the journal is closed and every
// later insert reports storage failure.
func (c *Collection) failPendingLocked(err error) {
	if g := c.commit.pending; g != nil {
		c.commit.pending = nil
		g.detached = true
		for _, b := range g.members {
			b.err = err
		}
		c.clearInflightLocked(g)
		close(g.done)
	}
	if c.journal != nil {
		c.metrics.incRollback()
		if rbErr := c.journal.Rollback(c.journal.SyncedOffset()); rbErr != nil {
			c.journal.Close()
			c.journal = nil
		}
	}
}

// drainPending completes the open commit group, if any, exactly as its
// leader would — flush, fsync, apply, signal — so that snapshot and
// shutdown paths quiesce with no batch half-committed. Called with syncMu
// held and ioMu NOT held; returns with ioMu held and no group pending,
// which is the stable state those paths need (they keep holding ioMu, so no
// new frames can slip into the journal they are about to swap or close).
func (c *Collection) drainPending() {
	c.ioMu.Lock()
	g := c.commit.pending
	if g == nil {
		return
	}
	if c.journal == nil {
		// Unreachable in practice (groups form only on journaled
		// collections, and a journal loss clears the pending group), but a
		// hung waiter would be far worse than a spurious error.
		g.detached = true
		c.commit.pending = nil
		failure := fmt.Errorf("%w: collection %q lost its journal", ErrStorage, c.name)
		for _, b := range g.members {
			b.err = failure
		}
		c.clearInflightLocked(g)
		close(g.done)
		return
	}
	c.commitGroup(g, true)
}

// CollStats reports a collection's engine, sketch configuration, footprint
// and persistence state. Engine-specific fields (buffer_bits, tau,
// num_hashes, the budget pair) are zero where the backend has no such knob.
// size_bytes is the sketch alone; record_bytes (the retained records) and
// index_bytes (what search walks beside the sketch: inverted lists, bit
// columns, offset tables) are what the engine holds around it, zero/omitted
// for engines that do not report them.
type CollStats struct {
	Name             string  `json:"name"`
	Engine           string  `json:"engine"`
	NumRecords       int     `json:"num_records"`
	BufferBits       int     `json:"buffer_bits"`
	Tau              float64 `json:"tau"`
	BudgetUnits      int     `json:"budget_units"`
	UsedUnits        int     `json:"used_units"`
	NumHashes        int     `json:"num_hashes,omitempty"`
	SizeBytes        int     `json:"size_bytes"`
	BufferBytes      int     `json:"buffer_bytes,omitempty"`
	SketchBytes      int     `json:"sketch_bytes,omitempty"`
	RecordBytes      int     `json:"record_bytes,omitempty"`
	IndexBytes       int     `json:"index_bytes,omitempty"`
	VocabSize        int     `json:"vocab_size"`
	Persistent       bool    `json:"persistent"`
	Generation       uint64  `json:"generation"`
	JournaledInserts int     `json:"journaled_inserts"`
	// WAL durability state: logical journal size (including buffered
	// not-yet-flushed bytes), the fsynced high-water mark, and how many
	// insert batches currently sit in the open commit group awaiting their
	// shared fsync. Zero/omitted for memory-only collections.
	WALOffsetBytes int64 `json:"wal_offset_bytes,omitempty"`
	WALSyncedBytes int64 `json:"wal_synced_bytes,omitempty"`
	OpenGroupDepth int   `json:"open_group_depth"`
	// QueryGeneration is the cache-key epoch of the engine's in-memory
	// state, bumped by every applied insert batch.
	QueryGeneration uint64 `json:"query_generation"`
	// QueryCache reports the prepared-query cache counters; nil (omitted)
	// when the cache is disabled.
	QueryCache *QueryCacheStats `json:"query_cache,omitempty"`
	// Role and Replication report the node's replication posture: Role is
	// "leader" (accepting writes; omitted on standalone memory-only stores)
	// or "follower", and Replication carries the follower's per-collection
	// stream state (nil on leaders). Filled by the stats handler, not by
	// Stats itself — the state lives with the store/follower, not the
	// collection.
	Role        string     `json:"role,omitempty"`
	Replication *ReplStats `json:"replication,omitempty"`

	// Storage is the collection's storage-integrity posture (read-only mode,
	// quarantined generation, recent quarantine events). Filled by the stats
	// handler — the quarantine event log lives with the store.
	Storage *StorageHealth `json:"storage,omitempty"`

	// Segments reports the collection's sharding layout; nil (omitted) for
	// unsegmented single-index collections.
	Segments *SegmentStats `json:"segments,omitempty"`
}

// SegmentStats describes how a segmented collection's records are spread
// across its sub-indexes. Skew is the max/min per-segment record count ratio
// (1.0 is a perfect spread; 0 while any segment is still empty), the quick
// health check for the hash routing.
type SegmentStats struct {
	Count   int     `json:"count"`
	Records []int   `json:"records"`
	Max     int     `json:"max"`
	Min     int     `json:"min"`
	Skew    float64 `json:"skew"`
}

// segmentStatsOf derives the /stats segments block from a collection engine,
// nil when it is not segmented.
func segmentStatsOf(eng gbkmv.Engine) *SegmentStats {
	seg, ok := eng.(*gbkmv.Segmented)
	if !ok {
		return nil
	}
	recs := seg.SegmentRecords()
	st := &SegmentStats{Count: len(recs), Records: recs}
	for i, n := range recs {
		if i == 0 || n > st.Max {
			st.Max = n
		}
		if i == 0 || n < st.Min {
			st.Min = n
		}
	}
	if st.Min > 0 {
		st.Skew = float64(st.Max) / float64(st.Min)
	}
	return st
}

// Stats returns the collection's current statistics.
func (c *Collection) Stats() CollStats {
	// Journal state first, under ioMu alone (brief — never across an fsync,
	// which runs outside ioMu), then the index state under the read lock.
	// Taking them disjointly respects the lock order and keeps stats from
	// blocking behind an in-flight commit's apply phase.
	var walOff, walSynced int64
	var groupDepth int
	c.ioMu.Lock()
	if c.journal != nil {
		walOff = c.journal.Offset()
		walSynced = c.journal.SyncedOffset()
	}
	if g := c.commit.pending; g != nil {
		groupDepth = len(g.members)
	}
	c.ioMu.Unlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := c.eng.EngineStats()
	var qcs *QueryCacheStats
	if c.qcache != nil {
		s := c.qcache.stats()
		qcs = &s
	}
	return CollStats{
		Name:             c.name,
		Engine:           st.Engine,
		NumRecords:       st.NumRecords,
		BufferBits:       st.BufferBits,
		Tau:              st.Tau,
		BudgetUnits:      st.BudgetUnits,
		UsedUnits:        st.UsedUnits,
		NumHashes:        st.NumHashes,
		SizeBytes:        st.SizeBytes,
		BufferBytes:      st.BufferBytes,
		SketchBytes:      st.SketchBytes,
		RecordBytes:      st.RecordBytes,
		IndexBytes:       st.IndexBytes,
		VocabSize:        c.voc.Len(),
		Persistent:       c.dir != "",
		Generation:       c.gen,
		JournaledInserts: c.journaled,
		WALOffsetBytes:   walOff,
		WALSyncedBytes:   walSynced,
		OpenGroupDepth:   groupDepth,
		QueryGeneration:  c.queryGen.Load(),
		QueryCache:       qcs,
		Segments:         segmentStatsOf(c.eng),
	}
}

func (c *Collection) closeJournal() {
	c.commit.syncMu.Lock()
	defer c.commit.syncMu.Unlock()
	// Complete (fsync, apply, acknowledge) any in-flight group first: its
	// members' inserts happened-before this close and must not hang or
	// vanish.
	c.drainPending() // returns with ioMu held
	defer c.ioMu.Unlock()
	c.closed = true
	if c.journal != nil {
		c.journal.Close()
		c.journal = nil
	}
	c.walChangedLocked() // wake streams so they observe the close
}

// reopenJournal resumes appending to the current generation's journal after
// closeJournal, used when the operation that quiesced the collection fails
// and the collection stays live. Caller holds opMu (so gen is stable).
func (c *Collection) reopenJournal() error {
	c.ioMu.Lock()
	defer c.ioMu.Unlock()
	if c.dir == "" {
		c.closed = false
		return nil
	}
	if c.journal != nil {
		c.closed = false
		return nil
	}
	path := journalPath(c.dir, c.gen)
	fi, err := c.fsys().Stat(path)
	if err != nil {
		return err
	}
	jw, err := openJournalWriter(c.fsys(), path, fi.Size())
	if err != nil {
		return err
	}
	c.journal = jw
	c.closed = false
	return nil
}

// meta is the per-collection commit record: a snapshot generation is live
// iff meta.json names it. Writing meta.json (atomic rename) is the commit
// point of a snapshot; every other file write may be torn by a crash and is
// ignored unless its generation is committed. Engine records which backend
// wrote the snapshot (informational — the snapshot itself is
// self-describing via the gbkmv engine header); Requests persists the
// duplicate-detection window across the journal truncation a snapshot
// implies.
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
	// Segments records the collection's segment count when the snapshot was
	// taken (informational — the index snapshot is self-describing); 0 for
	// single-index snapshots.
	Segments int `json:"segments,omitempty"`
}

// requestEntry is one remembered insert request in the commit record: the
// consecutive record-id span its batch was assigned.
type requestEntry struct {
	ID    string `json:"id"`
	First int    `json:"first"`
	Count int    `json:"count"`
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

func decodeMeta(b []byte, path string) (meta, error) {
	var m meta
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %v", path, err)
	}
	return m, nil
}

func readMeta(fsys fsx.FS, dir string) (meta, error) {
	if fsys == nil {
		fsys = fsx.Default
	}
	b, err := fsys.ReadFile(metaPath(dir))
	if err != nil {
		return meta{}, err
	}
	return decodeMeta(b, metaPath(dir))
}

// readMetaPrev reads the retained previous commit record — the fallback
// target a corrupt committed generation falls back to.
func readMetaPrev(fsys fsx.FS, dir string) (meta, error) {
	b, err := fsys.ReadFile(metaPrevPath(dir))
	if err != nil {
		return meta{}, err
	}
	return decodeMeta(b, metaPrevPath(dir))
}

// writeFileSync creates (truncating) path, runs write, fsyncs and closes,
// returning the exact size and CRC64 of the bytes written — the commit
// record's verification entry for the file.
func writeFileSync(fsys fsx.FS, path string, write func(w io.Writer) error) (fileSum, error) {
	if fsys == nil {
		fsys = fsx.Default
	}
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

// snapshot writes generation gen+1 (index, vocabulary, fresh journal),
// commits it by atomically replacing meta.json, then swaps the live journal
// and sweeps superseded generations. committed reports whether the rename
// landed: a post-commit error (the directory fsync) leaves the new
// generation visible on disk and the memory state already following it,
// which callers must treat differently from a failed snapshot.
//
// Integrity bookkeeping at commit: the record carries each file's size and
// CRC64 (verified at load, scrub and bootstrap transfer) plus its Parent —
// the generation the state was derived from. Derived snapshots retain their
// parent's files and copy the superseded commit record to meta-prev.json,
// so a later load that finds this generation corrupt can quarantine it and
// fall back to the parent plus full journal replay. Fresh builds (Parent 0)
// supersede everything: no fallback target is kept.
//
// Caller holds opMu and ioMu (or exclusively owns a not-yet-published
// collection, as in Create): inserts are excluded for the whole duration by
// ioMu, so only the read lock is needed while the index is encoded —
// searches keep running through the expensive part, and the write lock is
// taken just for the field swap.
func (c *Collection) snapshot() (committed bool, err error) {
	fsys := c.fsys()
	c.mu.RLock()
	gen := c.gen + 1
	parent := uint64(0)
	if c.derived {
		parent = c.gen
	}
	sums := make(map[string]fileSum, 2)
	// What the snapshot cost: encode is the time spent producing bytes
	// (writes into the page cache included), fsync the rest of writing the
	// two files — making them durable.
	var encode, fsync time.Duration
	writeTimed := func(path string, write func(io.Writer) error) (fileSum, error) {
		start, encoded := time.Now(), time.Duration(0)
		s, err := writeFileSync(fsys, path, func(w io.Writer) error {
			err := write(w)
			encoded = time.Since(start)
			return err
		})
		encode += encoded
		fsync += time.Since(start) - encoded
		return s, err
	}
	err = func() error {
		indexStart := time.Now()
		s, err := writeTimed(indexPath(c.dir, gen), func(w io.Writer) error {
			return gbkmv.SaveEngine(w, c.eng)
		})
		if err != nil {
			return fmt.Errorf("writing index snapshot: %w", err)
		}
		if _, segmented := c.eng.(*gbkmv.Segmented); !segmented && c.metrics != nil {
			// Single-index pause: the whole encode runs under one engine
			// state. Segmented engines observe per-segment pauses through the
			// save observer instead (see Store.attach).
			c.metrics.observeSnapPause(time.Since(indexStart))
		}
		sums["index"] = s
		if s, err = writeTimed(vocabPath(c.dir, gen), c.voc.Save); err != nil {
			return fmt.Errorf("writing vocabulary snapshot: %w", err)
		}
		sums["vocab"] = s
		return nil
	}()
	records := 0
	engine := ""
	segments := 0
	if err == nil {
		records = c.eng.Len()
		engine = c.eng.EngineName()
		if seg, ok := c.eng.(*gbkmv.Segmented); ok {
			segments = seg.SegmentCount()
		}
	}
	c.mu.RUnlock()
	if err != nil {
		c.noteDiskError("snapshot", err)
		return false, err
	}
	jw, err := openJournalWriter(fsys, journalPath(c.dir, gen), 0)
	if err != nil {
		c.noteDiskError("snapshot", err)
		return false, fmt.Errorf("creating journal: %w", err)
	}
	// The request window rides in the commit record: the snapshot subsumes
	// (and truncates) the journal that carried the ids, and the retry the
	// window exists for may arrive after both the snapshot and a restart.
	// Caller quiesced inserts (syncMu + ioMu, or exclusive ownership), so
	// the log is stable here.
	reqs := c.requests.entries()
	m := meta{Name: c.name, Engine: engine, Generation: gen, Parent: parent,
		Records: records, SavedAt: time.Now().UTC(), Requests: reqs, Checksums: sums,
		Segments: segments}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		jw.Close()
		return false, err
	}
	if parent != 0 {
		// Retain the fallback target: copy the commit record this snapshot
		// supersedes to meta-prev.json before the rename replaces it. A
		// failure here only loses the fallback breadcrumb, never the
		// snapshot — but disk errors still count.
		if pb, rerr := fsys.ReadFile(metaPath(c.dir)); rerr == nil {
			if _, werr := writeFileSync(fsys, metaPrevPath(c.dir), func(w io.Writer) error {
				_, err := w.Write(pb)
				return err
			}); werr != nil {
				c.noteDiskError("snapshot", werr)
			}
		}
	}
	tmp := metaPath(c.dir) + ".tmp"
	if _, err := writeFileSync(fsys, tmp, func(w io.Writer) error { _, err := w.Write(b); return err }); err != nil {
		jw.Close()
		c.noteDiskError("snapshot", err)
		return false, err
	}
	if err := fsys.Rename(tmp, metaPath(c.dir)); err != nil {
		jw.Close()
		c.noteDiskError("snapshot", err)
		return false, err
	}
	// The rename is the commit: once it lands, the visible disk state is
	// generation gen, so memory must follow it even if what comes next
	// fails — journaling into the superseded generation would fsync
	// acknowledged inserts to a file replay never reads.
	c.mu.Lock()
	oldGen := c.gen
	if c.journal != nil {
		// Record the superseded generation's final durable offset: a
		// follower that streamed the old journal to exactly here holds the
		// snapshot's state and may hand off to the new generation at offset
		// 0 instead of re-bootstrapping. (Caller quiesced inserts, so synced
		// == the journal's full content.) Guarded by ioMu, which the caller
		// holds — or the collection is not yet published (Create).
		c.prevGen = oldGen
		c.prevGenFinal = c.journal.SyncedOffset()
		c.journal.Close()
	}
	c.journal = jw
	c.gen = gen
	c.journaled = 0
	c.derived = true
	c.mu.Unlock()
	// A committed snapshot wrote fresh verified files: any quarantined
	// generation is now superseded (its files stay aside for forensics).
	c.quarantinedGen.Store(0)
	c.snapBytes.Store(sums["index"].Size + sums["vocab"].Size)
	if c.store != nil {
		c.store.logf("gbkmvd: snapshot %q gen %d: index %d bytes, vocab %d bytes, encode %s, fsync %s",
			c.name, gen, sums["index"].Size, sums["vocab"].Size,
			encode.Round(10*time.Microsecond), fsync.Round(10*time.Microsecond))
	}
	c.walChangedLocked()
	// Make the commit durable before deleting superseded generations: a
	// power loss must never persist the removals while losing the rename.
	// On fsync failure, keep the old files and report the error.
	if err := fsys.SyncDir(c.dir); err != nil {
		c.noteDiskError("dir_sync", err)
		return true, fmt.Errorf("%w: syncing %s: %v", ErrStorage, c.dir, err)
	}
	if parent == 0 {
		// Fresh build: the old lineage is gone, and so is its fallback
		// record — a later fallback into pre-replacement data would
		// resurrect deleted records.
		fsys.Remove(metaPrevPath(c.dir))
	}
	sweepStaleGenerations(fsys, c.dir, m)
	return true, nil
}

// genState is the in-memory result of loading one generation's files: the
// snapshot pair plus the replayed journal, before Collection assembly.
type genState struct {
	eng       gbkmv.Engine
	voc       *gbkmv.Vocabulary
	entries   []journalEntry
	validLen  int64
	tornTail  bool
	requests  *requestLog
	snapBytes int64 // size of the two snapshot files loaded
	// The load's stages, as the startup line reports them: both snapshot
	// files verified and read, what the engine computes once its file is read
	// (for gbkmv: derive), and the journal replayed on top.
	readDur, deriveDur, replayDur time.Duration
}

// loadGenFiles loads generation m.Generation's index, vocabulary and
// journal, each snapshot file verified against the commit record's checksum
// before it is parsed (loadVerified). A mismatch surfaces as errChecksum, a
// file of another format as gbkmv.ErrSnapshotFormat; the caller decides
// whether to quarantine and fall back.
func loadGenFiles(fsys fsx.FS, dir string, m meta) (*genState, error) {
	readStart := time.Now()
	index := readClock{left: int(m.Checksums["index"].Size)}
	eng, err := loadVerified(fsys, indexPath(dir, m.Generation), m.Checksums["index"], func(r io.Reader) (gbkmv.Engine, error) {
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
	replayStart := time.Now()
	entries, validLen, err := replayJournal(fsys, journalPath(dir, m.Generation))
	if err != nil {
		return nil, err
	}
	// A torn tail — bytes past the last intact entry, left by a crash mid
	// append — is detected here, before openJournalWriter truncates it away.
	tornTail := false
	if fi, err := fsys.Stat(journalPath(dir, m.Generation)); err == nil && fi.Size() > validLen {
		tornTail = true
	}
	// Re-intern in entry order (reproducing the original ids), then apply
	// as one batch so a static engine's rebuild costs one pass per startup,
	// not one per entry (the sketch engines decide threshold shrinks per
	// record, so the grouping cannot change their state).
	base := eng.Len()
	recs := make([]gbkmv.Record, len(entries))
	for i, e := range entries {
		recs[i] = voc.Record(e.Tokens)
	}
	eng.AddBatch(recs)
	// Rebuild the duplicate-detection window: the ids persisted at the last
	// snapshot, then every request-tagged journal batch (consecutive frames
	// sharing a rid) replayed on top, in order.
	requests := newRequestLog()
	for _, r := range m.Requests {
		requests.add(r.ID, r.First, r.Count)
	}
	forEachRidRun(entries, func(i, j int, rid string) {
		if rid != "" {
			requests.add(rid, base+i, j-i)
		}
	})
	return &genState{eng: eng, voc: voc, entries: entries, validLen: validLen,
		tornTail: tornTail, requests: requests,
		snapBytes: m.Checksums["index"].Size + m.Checksums["vocab"].Size,
		readDur:   index.last.Sub(readStart) + replayStart.Sub(derived), deriveDur: derived.Sub(index.last),
		replayDur: time.Since(replayStart)}, nil
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

// loadCollection restores a collection from its directory: the committed
// snapshot (verified against its checksums), then every intact journal
// entry replayed on top (re-interning tokens in insert order reproduces the
// original element ids exactly). If the committed generation's files are
// corrupt, it quarantines them and falls back to the retained parent
// generation plus full journal replay (fallbackLoad).
func loadCollection(fsys fsx.FS, dir string, logf func(string, ...any)) (*Collection, error) {
	if fsys == nil {
		fsys = fsx.Default
	}
	m, err := readMeta(fsys, dir)
	if err != nil {
		return nil, err
	}
	st, lerr := loadGenFiles(fsys, dir, m)
	if lerr != nil {
		return fallbackLoad(fsys, dir, m, lerr, logf)
	}
	jw, err := openJournalWriter(fsys, journalPath(dir, m.Generation), st.validLen)
	if err != nil {
		return nil, err
	}
	sweepStaleGenerations(fsys, dir, m)
	c := &Collection{
		name:      m.Name,
		dir:       dir,
		fs:        fsys,
		voc:       st.voc,
		eng:       st.eng,
		gen:       m.Generation,
		derived:   true,
		journal:   jw,
		journaled: len(st.entries),
		requests:  st.requests,
		readDur:   st.readDur,
		deriveDur: st.deriveDur,
		replayDur: st.replayDur,
		tornTail:  st.tornTail,
	}
	c.snapBytes.Store(st.snapBytes)
	return c, nil
}

// fallbackLoad recovers a collection whose committed generation G failed to
// load (lerr): it quarantines G's snapshot files and reconstructs the same
// state from the retained parent generation P plus replay. Correctness
// rests on two invariants: journal-P is final after the snapshot that
// produced G (so P's snapshot + full journal-P replay reproduces exactly
// the state G captured), and sweepStaleGenerations never removes the parent
// generation's files. The collection keeps generation G (meta.json still
// names it, journal-G stays live), so a restart that finds G still corrupt
// simply falls back again.
func fallbackLoad(fsys fsx.FS, dir string, m meta, lerr error, logf func(string, ...any)) (*Collection, error) {
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
	prev, err := readMetaPrev(fsys, dir)
	if err != nil || prev.Generation != m.Parent {
		return nil, lerr
	}
	if logf != nil {
		logf("collection %s: generation %d corrupt (%v), falling back to generation %d",
			m.Name, m.Generation, lerr, m.Parent)
	}
	// Quarantine before reloading: the corrupt files move aside (never
	// swept, kept for forensics), while journal-G stays in place — its
	// entries are replayed below and future inserts append to it.
	if err := quarantineGeneration(fsys, dir, m.Generation); err != nil {
		return nil, fmt.Errorf("generation %d corrupt (%v) and quarantine failed: %w", m.Generation, lerr, err)
	}
	st, err := loadGenFiles(fsys, dir, prev)
	if err != nil {
		return nil, fmt.Errorf("generation %d corrupt (%v) and fallback to %d failed: %w",
			m.Generation, lerr, m.Parent, err)
	}
	// Replay journal-G on top of the reconstructed snapshot state. Interior
	// corruption in journal-G is a hard error (replayJournal); a torn tail
	// is fine — those entries were never acknowledged.
	replayStart := time.Now()
	entries, validLen, err := replayJournal(fsys, journalPath(dir, m.Generation))
	if err != nil {
		return nil, fmt.Errorf("generation %d corrupt (%v) and its journal replay failed: %w",
			m.Generation, lerr, err)
	}
	base := st.eng.Len()
	recs := make([]gbkmv.Record, len(entries))
	for i, e := range entries {
		recs[i] = st.voc.Record(e.Tokens)
	}
	st.eng.AddBatch(recs)
	// The request window persisted at snapshot G is authoritative for
	// everything up to the snapshot (it subsumes prev's window plus
	// journal-P's runs); journal-G's runs land on top.
	requests := newRequestLog()
	for _, r := range m.Requests {
		requests.add(r.ID, r.First, r.Count)
	}
	forEachRidRun(entries, func(i, j int, rid string) {
		if rid != "" {
			requests.add(rid, base+i, j-i)
		}
	})
	jw, err := openJournalWriter(fsys, journalPath(dir, m.Generation), validLen)
	if err != nil {
		return nil, err
	}
	c := &Collection{
		name:       m.Name,
		dir:        dir,
		fs:         fsys,
		voc:        st.voc,
		eng:        st.eng,
		gen:        m.Generation,
		derived:    true,
		journal:    jw,
		journaled:  len(entries),
		requests:   requests,
		readDur:    st.readDur,
		deriveDur:  st.deriveDur,
		replayDur:  st.replayDur + time.Since(replayStart),
		tornTail:   st.tornTail,
		loadDetail: lerr.Error(),
	}
	c.quarantinedGen.Store(m.Generation)
	c.snapBytes.Store(st.snapBytes)
	sweepStaleGenerations(fsys, dir, m)
	return c, nil
}

// removeGeneration deletes one generation's snapshot and journal files —
// the abort path of a failed Create, which owns the not-yet-committed
// generation outright.
func removeGeneration(fsys fsx.FS, dir string, gen uint64) {
	fsys.Remove(indexPath(dir, gen))
	fsys.Remove(vocabPath(dir, gen))
	fsys.Remove(journalPath(dir, gen))
}

// sweepStaleGenerations removes snapshot/journal files of superseded
// generations — orphans left by a crash between a snapshot's commit and
// its cleanup, or by an aborted snapshot attempt. The invariant, relied on
// by fallbackLoad and tested in integrity_test.go: only generations
// *strictly older* than the committed one are stale, and even then the
// committed record's Parent generation is retained (it is the fallback
// target if the committed files turn out corrupt). Anything newer than the
// committed generation belongs to an in-flight snapshot attempt and is
// left alone (the next attempt reopens it with O_TRUNC); directories —
// including quarantine-<gen>/ — are never touched.
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
