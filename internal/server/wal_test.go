package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"testing"

	"gbkmv/internal/fsx"
)

// The wal driven alone: a journal on a FaultFS and a recording apply hook —
// no engine, no vocabulary, no HTTP. What a Collection relies on is pinned
// here at the seam it relies on it through.

type walRig struct {
	w    wal
	ffs  *fsx.FaultFS
	path string
	m    *collMetrics

	mu       sync.Mutex
	applied  []string // first token of every applied record, in apply order
	diskErrs []string // ops booked through the disk-error hook
}

func newWALRig(t *testing.T) *walRig {
	t.Helper()
	r := &walRig{ffs: &fsx.FaultFS{}, path: filepath.Join(t.TempDir(), "journal-1.log")}
	jw, err := openJournalWriter(r.ffs, r.path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.m = newMetrics().collMetricsFor("t")
	r.w.init("t", true, r.m, r.apply, func(op string, err error) {
		r.mu.Lock()
		r.diskErrs = append(r.diskErrs, op)
		r.mu.Unlock()
	})
	r.w.open(jw, 1, 0, newRequestLog())
	return r
}

// apply assigns the next consecutive ids, as every engine's AddBatch does,
// to the frames' records.
func (r *walRig) apply(b *commitBatch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries, err := newFrameScanner(b.frames, 0, "batch").scanAll()
	if err != nil || len(entries) != countFrames(b.frames) {
		panic(fmt.Sprintf("a batch of %d frames scans as %d records: %v", countFrames(b.frames), len(entries), err))
	}
	for _, e := range entries {
		b.ids = append(b.ids, len(r.applied))
		r.applied = append(r.applied, e.Tokens[0])
	}
}

func (r *walRig) appliedSoFar() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.applied...)
}

// insert commits one single-record batch.
func (r *walRig) insert(token, rid string) ([]int, error) {
	frames, err := encodeBatch([][]string{{token}}, rid)
	return r.w.insert(&commitBatch{frames: frames, rid: rid}, err)
}

// stallFsync makes the next fsync announce itself on entered and wait for
// release before going to the (fault-injecting) file.
func (r *walRig) stallFsync() (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	jw := r.w.journal
	var once sync.Once
	jw.syncHook = func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return jw.f.Sync()
	}
	return entered, release
}

// behind starts n inserts while a commit is stalled in its fsync and returns
// once all of them sit in the open group.
func (r *walRig) behind(t *testing.T, n int, results chan<- error) {
	t.Helper()
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := r.insert(fmt.Sprintf("behind-%d", i), "")
			results <- err
		}(i)
	}
	// Nothing can drain the group while the stalled leader holds syncMu.
	for r.w.status().depth < n {
		runtime.Gosched()
	}
}

func TestWALGroupCommitSharesFsyncInOrder(t *testing.T) {
	r := newWALRig(t)
	entered, release := r.stallFsync()
	const n = 16
	results := make(chan error, n+1)
	go func() {
		_, err := r.insert("first", "")
		results <- err
	}()
	<-entered
	r.behind(t, n, results)
	close(release)
	for i := 0; i < n+1; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	groups := r.m.groupSize.Snapshot()
	if groups.Count != 2 || groups.Sum != n+1 {
		t.Fatalf("%d inserts committed in %d groups of %v members in total, want 2 groups: 1 + %d",
			n+1, groups.Count, groups.Sum, n)
	}
	if fsyncs := r.m.fsync.Snapshot().Count; fsyncs != 2 {
		t.Fatalf("%d fsyncs for %d inserts, want 2", fsyncs, n+1)
	}
	// Apply order is journal order, and ids follow it.
	entries, _, err := replayJournal(r.ffs, r.path)
	if err != nil {
		t.Fatal(err)
	}
	var journaled []string
	for _, e := range entries {
		journaled = append(journaled, e.Tokens[0])
	}
	if applied := r.appliedSoFar(); !reflect.DeepEqual(applied, journaled) {
		t.Fatalf("applied %v\njournal %v", applied, journaled)
	}
	if st := r.w.status(); st.entries != n+1 || st.synced != st.offset || st.depth != 0 {
		t.Fatalf("status after the commits: %+v", st)
	}
}

func TestWALFsyncFailureFailsGroupAndFollowers(t *testing.T) {
	r := newWALRig(t)
	if _, err := r.insert("durable", ""); err != nil {
		t.Fatal(err)
	}
	durable := r.w.status().synced

	entered, release := r.stallFsync()
	r.ffs.FailSyncs(1, syscall.EIO)
	const n = 4
	results := make(chan error, n+1)
	go func() {
		_, err := r.insert("doomed", "")
		results <- err
	}()
	<-entered
	r.behind(t, n, results)
	close(release)
	for i := 0; i < n+1; i++ {
		if err := <-results; !errors.Is(err, ErrStorage) {
			t.Fatalf("insert around a failed fsync: %v, want ErrStorage", err)
		}
	}
	if applied := r.appliedSoFar(); len(applied) != 1 {
		t.Fatalf("batches of a failed group were applied: %v", applied)
	}
	if st := r.w.status(); st.offset != durable || st.synced != durable || st.depth != 0 || st.entries != 1 {
		t.Fatalf("status after the failure: %+v, want a rollback to %d", st, durable)
	}
	if fi, err := r.ffs.Stat(r.path); err != nil || fi.Size() != durable {
		t.Fatalf("journal file is %d bytes (%v), want %d", fi.Size(), err, durable)
	}
	if !reflect.DeepEqual(r.diskErrs, []string{"journal_sync"}) || r.m.rollbacks.Value() != 1 {
		t.Fatalf("booked disk errors %v and %d rollbacks, want one journal_sync and one rollback",
			r.diskErrs, r.m.rollbacks.Value())
	}
	// The rollback healed the log: the next commit succeeds, and the failed
	// batches consumed no ids.
	ids, err := r.insert("after", "")
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("insert after the failure: ids %v, err %v", ids, err)
	}
}

func TestWALQuiesceDrainsAndHoldsAppends(t *testing.T) {
	r := newWALRig(t)
	entered, release := r.stallFsync()
	const n = 3
	results := make(chan error, n+2)
	go func() {
		_, err := r.insert("first", "")
		results <- err
	}()
	<-entered
	r.behind(t, n, results)
	quiesced := make(chan func())
	go func() { quiesced <- r.w.quiesce() }()
	close(release)
	resume := <-quiesced
	// Quiesced: every insert that had appended is applied — by its leader or
	// by the drain — and nothing is pending or short of durable.
	if r.w.pending != nil || len(r.appliedSoFar()) != n+1 {
		t.Fatalf("quiesce returned with a group pending (%v) or batches unapplied (%d of %d)",
			r.w.pending != nil, len(r.appliedSoFar()), n+1)
	}
	if off, synced := r.w.journal.Offset(), r.w.journal.SyncedOffset(); off != synced {
		t.Fatalf("quiesced journal has %d bytes not durable", off-synced)
	}
	// Appends are held off: the append lock is taken, and an insert started
	// now is applied only after the release.
	if r.w.ioMu.TryLock() {
		t.Fatal("the append lock is free while quiesced")
	}
	go func() {
		_, err := r.insert("late", "")
		results <- err
	}()
	runtime.Gosched()
	if applied := r.appliedSoFar(); len(applied) != n+1 {
		t.Fatalf("applied while quiesced: %v", applied)
	}
	resume()
	for i := 0; i < n+2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if applied := r.appliedSoFar(); len(applied) != n+2 || applied[n+1] != "late" {
		t.Fatalf("applied %v, want the held-off insert last", applied)
	}
}

func TestWALRetryOfInflightRequestWaits(t *testing.T) {
	r := newWALRig(t)
	entered, release := r.stallFsync()
	type result struct {
		ids []int
		err error
	}
	original, retry := make(chan result, 1), make(chan result, 1)
	go func() {
		ids, err := r.insert("tagged", "rid")
		original <- result{ids, err}
	}()
	<-entered // appended, sealed, stalled in its fsync: in flight, not yet applied
	go func() {
		ids, err := r.insert("tagged", "rid")
		retry <- result{ids, err}
	}()
	select {
	case res := <-retry:
		t.Fatalf("the retry answered before the original committed: %+v", res)
	default:
	}
	close(release)
	orig, ret := <-original, <-retry
	if orig.err != nil {
		t.Fatal(orig.err)
	}
	if !errors.Is(ret.err, ErrDuplicateRequest) || !reflect.DeepEqual(ret.ids, orig.ids) {
		t.Fatalf("retry: ids %v, err %v; want the original's %v and ErrDuplicateRequest", ret.ids, ret.err, orig.ids)
	}
	if applied := r.appliedSoFar(); len(applied) != 1 {
		t.Fatalf("applied %v, want the tagged record once", applied)
	}
	if st := r.w.status(); st.depth != 0 || len(r.w.inflight) != 0 {
		t.Fatalf("registry not cleared: depth %d, inflight %v", st.depth, r.w.inflight)
	}
	// Once applied, the request window answers the same retry.
	if ids, err := r.insert("tagged", "rid"); !errors.Is(err, ErrDuplicateRequest) || !reflect.DeepEqual(ids, orig.ids) {
		t.Fatalf("retry after the commit: ids %v, err %v", ids, err)
	}
}
