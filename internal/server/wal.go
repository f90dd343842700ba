package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// wal is one collection's write-ahead log, and the only code that touches
// the journal writer, its two locks, the open commit group, the in-flight
// retry registry and the request-id window.
//
// Lock order, store-wide: opMu → syncMu → ioMu → mu (the collection's index
// lock, taken inside apply). ioMu serializes journal appends — append order
// is id-assignment order, which replay depends on — and guards every field
// declared below it. syncMu is the commit leader lock: its holder is the
// only one flushing, fsyncing, applying or rolling back, so commit groups
// complete in formation order.
//
// The choreography, stated once:
//
//   - insert (a client's batch) appends under ioMu and joins the open group.
//     The batch that opened the group is its leader: it takes syncMu, seals
//     and flushes the group under ioMu, then fsyncs and applies with ioMu
//     released, so batches arriving meanwhile append and form the next
//     group. At most one fsync plus one apply phase is in flight, and
//     appends never stall behind either.
//   - quiesce (snapshot, close, generation roll) and appendDurable (the
//     follower's stream) take syncMu, complete the open group as its leader
//     would, and hold ioMu throughout: nothing is left appended-but-unapplied
//     and nothing new is appended until they let go.
//
// On every path acknowledgement strictly follows durability: no batch is
// applied (so no search can see it) before its frames are fsynced, and a
// flush or fsync failure fails every batch whose frames are not durable and
// rolls the file back to the synced offset, so entries on disk never outrun
// the acknowledged index state.
type wal struct {
	name       string // collection name, for error messages
	persistent bool   // false in a memory-only store: commits apply in place
	metrics    *collMetrics
	// apply applies one batch's frames to the vocabulary and the index,
	// setting b.ids; diskErr books a write-path disk error. Both are bound
	// once, by init.
	apply   func(b *commitBatch)
	diskErr func(op string, err error)

	syncMu sync.Mutex
	ioMu   sync.Mutex

	journal *journalWriter // nil when memory-only, closed, or lost to a failed rollback
	gen     uint64         // generation the journal belongs to
	closed  bool           // the collection was replaced, deleted or shut down
	// pending is the open group accepting members. Every batch that appended
	// frames since the previous group was sealed is a member, so the
	// seal-time flush covers exactly the members' frames.
	pending *commitGroup
	// inflight maps a request id to its not-yet-applied batch. The requests
	// window learns ids only at apply time, which is after insert released
	// ioMu; a retry racing that gap finds its original here and waits for its
	// group instead of slipping past the duplicate check.
	inflight map[string]*inflightInsert
	// requests remembers the ids of recent request-tagged batches. It has its
	// own lock so the leader can record ids during the apply phase without
	// ioMu.
	requests *requestLog
	// entries counts the records applied from the current journal; atomic
	// because the leader's apply phase adds to it holding syncMu alone.
	entries atomic.Int64

	// notify is closed whenever the durable frontier moves — a group fsyncs,
	// a snapshot swaps generations, the journal closes — waking long-polled
	// wal streams. prevGen/prevFinal record the superseded generation and its
	// final synced offset across a swap, so a follower that fully applied the
	// old journal hands off to the new generation without re-bootstrapping.
	notify    chan struct{}
	prevGen   uint64
	prevFinal int64
	// appendDurable's frame ends and decoded frame, kept for the next chunk.
	chunkEnds  []int
	chunkFrame frame
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
	detached bool // sealed for processing, by its leader or a drain
	done     chan struct{}
}

// commitBatch is one insert's slot in its commit group: the journal frames
// of its records, one a record, which its owner (a request's scanner,
// appendDurable's caller) leaves alone until the batch is settled. They are
// what is appended and what is applied.
type commitBatch struct {
	frames []byte
	rid    string
	ids    []int // assigned in apply order == journal order
	err    error
}

// init binds a collection's wal, once, to its name, its metric children and
// its two hooks; persistent is false in a memory-only store. The log has an
// empty request window and no journal until open or swap gives it one.
func (w *wal) init(name string, persistent bool, m *collMetrics, apply func(*commitBatch), diskErr func(op string, err error)) {
	w.name, w.persistent, w.metrics = name, persistent, m
	w.apply, w.diskErr, w.requests = apply, diskErr, newRequestLog()
}

// open attaches the journal of generation gen, already holding entries
// records, and the request window that goes with it. Only for a wal nobody
// else can reach yet.
func (w *wal) open(jw *journalWriter, gen uint64, entries int, requests *requestLog) {
	w.journal, w.gen, w.requests = jw, gen, requests
	w.entries.Store(int64(entries))
}

// insert journals one client insert — b.frames, encoded by the caller, or
// encErr where they could not be — and returns once b is durable and
// applied, or failed. Returns the new record ids in batch order.
//
// A non-empty b.rid closes the WAL-ambiguity window: the id is echoed into
// every frame and remembered (across snapshots via the commit record, across
// restarts via replay), so a client retrying an insert whose acknowledgement
// was lost gets ErrDuplicateRequest with the originally assigned ids instead
// of duplicated records.
func (w *wal) insert(b *commitBatch, encErr error) ([]int, error) {
	w.ioMu.Lock()
	if b.rid != "" {
		if ids, seen := w.requests.get(b.rid); seen {
			w.ioMu.Unlock()
			return ids, ErrDuplicateRequest
		}
		if inf, ok := w.inflight[b.rid]; ok {
			// The original is appended but not yet applied: wait for its
			// group and answer from the original batch.
			w.ioMu.Unlock()
			<-inf.done
			if inf.batch.err != nil {
				// The original never committed; nothing was inserted, and the
				// registry entry is gone, so a later retry may proceed.
				return nil, inf.batch.err
			}
			return inf.batch.ids, ErrDuplicateRequest
		}
	}
	if w.closed || (w.persistent && w.journal == nil) {
		// Closed, deleted or replaced while the handler held the collection:
		// applying would acknowledge records that exist nowhere a later
		// reader looks.
		w.ioMu.Unlock()
		return nil, fmt.Errorf("%w: collection %q is closed", ErrStorage, w.name)
	}
	if encErr != nil {
		w.ioMu.Unlock()
		return nil, encErr // errEntryTooLarge: client-side, nothing written
	}
	if w.journal == nil {
		// Memory-only store: nothing to make durable, apply the frames in
		// place.
		w.applied(b)
		w.ioMu.Unlock()
		return b.ids, b.err
	}
	if err := w.append(b.frames, countFrames(b.frames)); err != nil {
		err = fmt.Errorf("%w: journal append: %v", ErrStorage, err)
		// The buffered writer is poisoned: nothing after the partial write
		// enters the stream. A commit in flight will surface that at its flush
		// and heal the journal; if none is, nothing would ever flush again, so
		// heal here. TryLock tells the two apart without blocking: holding
		// syncMu means no fsync can race the truncation, and failing to get
		// it proves a leader exists to do the healing.
		if w.syncMu.TryLock() {
			w.abandon(err)
			w.syncMu.Unlock()
		}
		w.ioMu.Unlock()
		return nil, err
	}
	g := w.pending
	leader := g == nil
	if leader {
		g = &commitGroup{done: make(chan struct{})}
		w.pending = g
	}
	g.members = append(g.members, b)
	if b.rid != "" {
		if w.inflight == nil {
			w.inflight = make(map[string]*inflightInsert)
		}
		w.inflight[b.rid] = &inflightInsert{batch: b, done: g.done}
	}
	w.ioMu.Unlock()
	if leader {
		w.syncMu.Lock()
		w.ioMu.Lock()
		// A quiesce may have drained the group while this leader waited for
		// the previous one; its results are settled then.
		if !g.detached {
			w.commitGroup(g, true)
		}
		w.ioMu.Unlock()
		w.syncMu.Unlock()
	}
	<-g.done
	return b.ids, b.err
}

// append buffers frames (holding records records) into the journal. Under
// ioMu.
func (w *wal) append(frames []byte, records int) error {
	if err := w.journal.appendFrames(frames); err != nil {
		w.diskErr("journal_append", err)
		return err
	}
	w.metrics.walBytes.Add(uint64(len(frames)))
	w.metrics.walFrames.Add(uint64(records))
	return nil
}

// applied applies one durable (or memory-only) batch and remembers its ids.
// Callers apply in append order — the leader and the drains under syncMu,
// the memory-only insert under ioMu — which is what keeps id assignment
// identical to what replay reproduces.
func (w *wal) applied(b *commitBatch) {
	w.apply(b)
	w.requests.add(b.rid, b.ids[0], len(b.ids))
	if w.persistent {
		w.entries.Add(int64(len(b.ids)))
	}
}

// makeDurable is the one durable-append sequence: flush what was appended,
// fsync it, and only then apply batches in journal order and move the
// durable frontier. Called with syncMu and ioMu held, returns with both
// held; yield releases ioMu from after the flush (the buffered writer is
// shared with appends) until the applies are done — the leader path. On
// failure nothing was applied and op names the step ("journal_flush",
// "journal_sync"); the caller fails its waiters and calls abandon.
func (w *wal) makeDurable(batches []*commitBatch, yield bool) (op string, err error) {
	op, err = "journal_flush", w.journal.Flush()
	if yield {
		w.ioMu.Unlock()
	}
	if err == nil {
		op = "journal_sync"
		start := time.Now()
		if err = w.journal.SyncFile(); err == nil {
			w.metrics.fsync.Observe(time.Since(start).Seconds())
		}
	}
	if err == nil {
		for _, b := range batches {
			w.applied(b)
		}
	} else {
		// ENOSPC/EIO degrades the collection to read-only until the storage
		// probe sees the disk heal.
		w.diskErr(op, err)
	}
	if yield {
		w.ioMu.Lock()
	}
	if err == nil {
		w.changed()
	}
	return op, err
}

// commitGroup seals g, makes its frames durable, applies its batches and
// wakes its waiters. Called with syncMu and ioMu held; returns with both
// held and g.done closed. A failure also fails every batch that appended
// behind g — their frames can no longer become durable in order.
func (w *wal) commitGroup(g *commitGroup, yield bool) {
	g.detached = true
	if w.pending == g {
		w.pending = nil
	}
	w.metrics.groupSize.Observe(float64(len(g.members)))
	if op, err := w.makeDurable(g.members, yield); err != nil {
		failure := fmt.Errorf("%w: %s: %v", ErrStorage, strings.ReplaceAll(op, "_", " "), err)
		w.failGroup(g, failure)
		w.abandon(failure)
		return
	}
	w.forget(g)
	close(g.done)
}

// forget drops a finished group's batches from the retry registry. Entries
// go only after apply recorded the ids in the requests window (or the batch
// failed), so a retry always finds one of the two. Under ioMu.
func (w *wal) forget(g *commitGroup) {
	for _, b := range g.members {
		if b.rid != "" {
			delete(w.inflight, b.rid)
		}
	}
}

// failGroup fails every batch of g with err and wakes its waiters. Under
// ioMu.
func (w *wal) failGroup(g *commitGroup, err error) {
	g.detached = true
	if w.pending == g {
		w.pending = nil
	}
	for _, b := range g.members {
		b.err = err
	}
	w.forget(g)
	close(g.done)
}

// abandon gives up on everything appended but not durable: the open group's
// batches fail with err and the file rolls back to its synced offset. A
// successful rollback also heals a poisoned buffered writer, so the journal
// keeps serving once the disk recovers; if even the rollback fails the
// journal is closed and every later insert reports storage failure. Under
// syncMu and ioMu.
func (w *wal) abandon(err error) {
	if g := w.pending; g != nil {
		w.failGroup(g, err)
	}
	if w.journal == nil {
		return
	}
	w.metrics.rollbacks.Inc()
	if rbErr := w.journal.Rollback(w.journal.SyncedOffset()); rbErr != nil {
		w.journal.Close()
		w.journal = nil
	}
}

// quiesce completes the open commit group exactly as its leader would and
// returns with the log idle: no group pending, no batch half-committed, and
// appends held off until release is called. swap and shut require it.
func (w *wal) quiesce() (release func()) {
	w.syncMu.Lock()
	w.drain()
	return w.release
}

func (w *wal) release() {
	w.ioMu.Unlock()
	w.syncMu.Unlock()
}

// drain is quiesce's second half: called with syncMu held, it takes ioMu and
// returns holding it with no group pending.
func (w *wal) drain() {
	w.ioMu.Lock()
	switch g := w.pending; {
	case g == nil:
	case w.journal == nil:
		// Unreachable in practice (a journal loss fails the open group), but
		// a hung waiter would be far worse than a spurious error.
		w.failGroup(g, fmt.Errorf("%w: collection %q lost its journal", ErrStorage, w.name))
	default:
		w.commitGroup(g, false)
	}
}

// appendDurable is the follower's commit: raw journal frames of generation
// gen starting at byte offset from, which must be the local journal's end
// (the stream has no gaps). The chunk's intact frames are appended verbatim,
// made durable, then applied one batch per request-id run — the partitioning
// startup replay rebuilds the dedup window from, so ids, request spans and
// the query generation land as they did on the leader. admit is handed each
// frame as it decodes, in order, and refuses one that would not apply; a
// refused frame fails the chunk before anything of it is appended. A
// trailing partial frame — a chunk cut by a dropped connection — is ignored,
// like a torn tail at startup. Returns the new journal offset and the entries
// applied.
func (w *wal) appendDurable(gen uint64, from int64, frames []byte, admit func(*frame) error) (off int64, applied int, err error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.drain()
	defer w.ioMu.Unlock()
	if w.closed || w.journal == nil {
		return 0, 0, fmt.Errorf("%w: collection %q is closed", ErrStorage, w.name)
	}
	if gen != w.gen {
		return 0, 0, fmt.Errorf("%w: chunk of generation %d, replica at %d", ErrReplDiverged, gen, w.gen)
	}
	off = w.journal.Offset()
	if from != off {
		return 0, 0, fmt.Errorf("%w: chunk starts at %d, replica journal ends at %d", ErrReplDiverged, from, off)
	}
	// Decode before touching the journal: only frames that parse intact and
	// apply are appended. Interior corruption is a hard error — the leader
	// ships only sealed frames, so it means the transfer (or the leader's
	// disk) is mangling data.
	sc := newFrameScanner(frames, off, w.name)
	sc.frame = w.chunkFrame
	ends := w.chunkEnds[:0]
	var batches []*commitBatch
	entries, err := sc.scanRuns(func(f *frame) error {
		ends = append(ends, int(sc.Offset()-off))
		return admit(f)
	}, func(from, to int, rid string) {
		batches = append(batches, &commitBatch{frames: frames[endBefore(ends, from):ends[to-1]], rid: rid})
	})
	if len(frames) <= scanKeepBytes {
		w.chunkEnds, w.chunkFrame = ends, sc.frame
	}
	if err != nil {
		return 0, 0, fmt.Errorf("%w: replicated chunk: %v", ErrStorage, err)
	}
	valid := frames[:sc.Offset()-off]
	if len(valid) == 0 {
		return off, 0, nil
	}
	if err = w.append(valid, entries); err == nil {
		_, err = w.makeDurable(batches, false)
	}
	if err != nil {
		// If even the rollback fails the journal is closed and the follower
		// re-bootstraps the collection.
		err = fmt.Errorf("%w: replica journal: %v", ErrStorage, err)
		w.abandon(err)
		return off, 0, err
	}
	return w.journal.Offset(), entries, nil
}

// swap replaces the journal with generation gen's empty one, remembering
// where the superseded generation ended so a follower that streamed it to
// exactly there hands off instead of re-bootstrapping. Quiesced callers only
// (so synced is the old journal's full content).
func (w *wal) swap(jw *journalWriter, gen uint64) {
	if w.journal != nil {
		w.prevGen, w.prevFinal = w.gen, w.journal.SyncedOffset()
		w.journal.Close()
	}
	w.journal, w.gen = jw, gen
	w.entries.Store(0)
	w.changed()
}

// shut closes the journal and refuses every later commit. Quiesced callers
// only.
func (w *wal) shut() (err error) {
	w.closed = true
	if w.journal != nil {
		err = w.journal.Close()
		w.journal = nil
	}
	w.changed() // wake streams so they observe the close
	return err
}

// close quiesces and shuts: the open group's inserts happened-before the
// close and complete (fsync, apply, acknowledge) first.
func (w *wal) close() {
	release := w.quiesce()
	defer release()
	w.shut()
}

// reopen resumes a log that close shut, when the operation that quiesced the
// collection failed and the collection stays live. open reopens the current
// generation's journal file; the caller holds opMu, so that generation is
// stable.
func (w *wal) reopen(open func() (*journalWriter, error)) error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.persistent && w.journal == nil {
		jw, err := open()
		if err != nil {
			return err
		}
		w.journal = jw
	}
	w.closed = false
	return nil
}

// window returns the remembered request spans in arrival order, for the
// commit record.
func (w *wal) window() []requestEntry { return w.requests.entries() }

// journaled is the number of records applied from the current journal.
func (w *wal) journaled() int { return int(w.entries.Load()) }

// walStatus is a point-in-time copy of the log's position.
type walStatus struct {
	ok        bool   // has an open journal (persistent, not closed)
	gen       uint64 // generation of the journal
	offset    int64  // logical size, buffered not-yet-flushed bytes included
	synced    int64  // durable frontier
	entries   int    // records applied from the current journal
	depth     int    // batches in the open commit group
	prevGen   uint64 // generation superseded by the last swap (0 if none)
	prevFinal int64  // final synced offset of prevGen
	notify    <-chan struct{}
}

// status copies the position under ioMu alone — brief, never across an
// fsync, which runs outside it.
func (w *wal) status() walStatus {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	return w.statusLocked()
}

// follow is status plus, for an open log, the channel the next move of the
// durable frontier closes — taken in the same critical section, so a stream
// that finds nothing to ship cannot miss the commit that follows.
func (w *wal) follow() walStatus {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	st := w.statusLocked()
	if st.ok {
		if w.notify == nil {
			w.notify = make(chan struct{})
		}
		st.notify = w.notify
	}
	return st
}

func (w *wal) statusLocked() walStatus {
	st := walStatus{gen: w.gen, entries: w.journaled(), prevGen: w.prevGen, prevFinal: w.prevFinal}
	if w.journal != nil {
		st.ok = !w.closed
		st.offset, st.synced = w.journal.Offset(), w.journal.SyncedOffset()
	}
	if w.pending != nil {
		st.depth = len(w.pending.members)
	}
	return st
}

// changed wakes every stream waiting on the durable frontier. Under ioMu.
func (w *wal) changed() {
	if w.notify != nil {
		close(w.notify)
		w.notify = nil
	}
}

// maxRememberedRequests bounds the duplicate-detection window: ids beyond it
// age out oldest-first. The window exists for the WAL-ambiguity retry (which
// arrives promptly), not as a general idempotency ledger.
const maxRememberedRequests = 1024

// requestLog remembers the record ids assigned to recent request-tagged
// inserts, in arrival order. Batch ids are always consecutive (every
// engine's AddBatch assigns them that way), so each request is one
// (first, count) span — a tagged 100k-record batch costs two integers here
// and in the commit record, not 100k.
type requestLog struct {
	mu    sync.Mutex
	ids   map[string]requestEntry
	order []string
}

// requestEntry is one remembered insert request, as the commit record holds
// it: the consecutive id range its batch was assigned.
type requestEntry struct {
	ID    string `json:"id"`
	First int    `json:"first"`
	Count int    `json:"count"`
}

func newRequestLog() *requestLog {
	return &requestLog{ids: make(map[string]requestEntry)}
}

func (l *requestLog) get(rid string) ([]int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.ids[rid]
	if !ok {
		return nil, false
	}
	ids := make([]int, e.Count)
	for i := range ids {
		ids[i] = e.First + i
	}
	return ids, true
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
	l.ids[rid] = requestEntry{ID: rid, First: first, Count: count}
	for len(l.order) > maxRememberedRequests {
		delete(l.ids, l.order[0])
		l.order = l.order[1:]
	}
}

// entries snapshots the remembered spans in arrival order.
func (l *requestLog) entries() []requestEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]requestEntry, 0, len(l.order))
	for _, rid := range l.order {
		out = append(out, l.ids[rid])
	}
	return out
}
