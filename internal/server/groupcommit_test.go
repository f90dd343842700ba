package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gbkmv"
)

// Group-commit tests: concurrent inserts sharing batched fsyncs must keep
// the journal's cardinal invariant — every acknowledged insert is durable
// and replays at exactly the ids the server acknowledged — through crashes
// at any point, including between a frame append and its fsync.

// newGroupCommitCollection builds a persistent collection ready for
// concurrent inserts.
func newGroupCommitCollection(t *testing.T, dir string) (*Store, *Collection) {
	t.Helper()
	store, err := OpenStore(dir, StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	voc := gbkmv.NewVocabulary()
	recs := []gbkmv.Record{
		voc.Record([]string{"seed", "record", "one"}),
		voc.Record([]string{"seed", "record", "two"}),
	}
	// A roomy absolute budget keeps threshold shrinks out of these tests;
	// the shrink path has its own differential coverage in internal/core.
	eng, err := gbkmv.Build(recs, gbkmv.Options{BudgetUnits: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c, err := store.Create("gc", voc, eng)
	if err != nil {
		t.Fatal(err)
	}
	return store, c
}

func TestConcurrentGroupCommitInserts(t *testing.T) {
	dir := t.TempDir()
	_, c := newGroupCommitCollection(t, dir)

	const clients = 8
	const perClient = 20
	type acked struct {
		ids    []int
		tokens [][]string
	}
	results := make([][]acked, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				batch := [][]string{
					{fmt.Sprintf("c%d", w), fmt.Sprintf("i%d", i), "alpha"},
					{fmt.Sprintf("c%d", w), fmt.Sprintf("i%d", i), "beta", "gamma"},
				}
				rid := ""
				if i%3 == 0 {
					rid = fmt.Sprintf("rid-%d-%d", w, i)
				}
				ids, err := c.Insert(batch, rid)
				if err != nil {
					t.Errorf("client %d insert %d: %v", w, i, err)
					return
				}
				if len(ids) != len(batch) {
					t.Errorf("client %d insert %d: %d ids for %d records", w, i, len(ids), len(batch))
					return
				}
				results[w] = append(results[w], acked{ids: ids, tokens: batch})
			}
		}(w)
	}
	wg.Wait()

	// Batch ids must be consecutive (the request-dedup spans depend on it)
	// and globally unique.
	seen := map[int]bool{}
	for w := range results {
		for _, a := range results[w] {
			for j, id := range a.ids {
				if j > 0 && id != a.ids[j-1]+1 {
					t.Fatalf("non-consecutive batch ids %v", a.ids)
				}
				if seen[id] {
					t.Fatalf("id %d acknowledged twice", id)
				}
				seen[id] = true
			}
		}
	}

	// Simulated kill: no Store.Close, reload from disk. Every acknowledged
	// insert was fsynced before its Insert returned, so replay must
	// reproduce each record at its acknowledged id.
	store2, err := OpenStore(dir, StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2, err := store2.Get("gc")
	if err != nil {
		t.Fatal(err)
	}
	for w := range results {
		for _, a := range results[w] {
			for j, id := range a.ids {
				got := c2.voc.Tokens(c2.eng.Record(id))
				want := a.tokens[j]
				if len(got) != len(want) {
					t.Fatalf("replayed record %d = %v, acknowledged %v", id, got, want)
				}
				wantSet := map[string]bool{}
				for _, tok := range want {
					wantSet[tok] = true
				}
				for _, tok := range got {
					if !wantSet[tok] {
						t.Fatalf("replayed record %d = %v, acknowledged %v", id, got, want)
					}
				}
			}
		}
	}
	if got, want := c2.eng.Len(), 2+clients*perClient*2; got != want {
		t.Fatalf("replayed %d records, want %d", got, want)
	}
}

// rawFrame builds one journal frame exactly as the writer does, against
// the collection's vocabulary.
func rawFrame(t *testing.T, c *Collection, tokens []string) []byte {
	t.Helper()
	var ids []gbkmv.Element
	frame, err := encodeFrames(nil, c.voc, packTokens([][]string{tokens}), "", &ids)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestKillBetweenAppendAndFsync(t *testing.T) {
	dir := t.TempDir()
	store, c := newGroupCommitCollection(t, dir)
	acked, err := c.Insert([][]string{{"durable", "insert"}}, "")
	if err != nil {
		t.Fatal(err)
	}
	gen := c.gens.gen
	// Simulated kill mid-commit: the process dies after frames were
	// appended (and possibly handed to the OS) but before the group's
	// fsync. Nothing was acknowledged or applied. Depending on what the
	// page cache persisted, the file can end with any prefix of the
	// unsynced frames — model the worst case: one intact unsynced frame
	// followed by a torn half-frame.
	_ = store // abandoned: no Close
	path := journalPath(c.gens.dir, gen)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	intact := rawFrame(t, c, []string{"unsynced", "but", "durable", "intact"})
	torn := rawFrame(t, c, []string{"torn", "mid", "write"})
	if _, err := f.Write(intact); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	store2, err := OpenStore(dir, StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2, err := store2.Get("gc")
	if err != nil {
		t.Fatal(err)
	}
	// The acknowledged insert must replay at its acknowledged id…
	got := c2.voc.Tokens(c2.eng.Record(acked[0]))
	if len(got) != 2 || got[0] != "durable" || got[1] != "insert" {
		t.Fatalf("acknowledged record %d replayed as %v", acked[0], got)
	}
	// …the intact unsynced frame may surface (it was never acknowledged, so
	// either outcome is allowed — here it is intact on disk, so it does),
	// and the torn frame must be truncated away.
	if n := c2.eng.Len(); n != 4 {
		t.Fatalf("replayed %d records, want 4 (2 seed + 1 acked + 1 unsynced intact)", n)
	}
	// The truncation must let the journal keep accepting inserts.
	if _, err := c2.Insert([][]string{{"post", "recovery"}}, ""); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

func TestDuplicateRequestDuringCommitWindow(t *testing.T) {
	// The group-commit window: a request-tagged batch is appended but its
	// group has not applied yet (the requests window cannot know its ids),
	// when the client's retry arrives. The retry must wait for the group
	// and come back as a duplicate with the original ids — not slip past
	// the check and double-insert.
	dir := t.TempDir()
	store, c := newGroupCommitCollection(t, dir)
	defer store.Close()
	before := c.eng.Len()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.wal.journal.syncHook = func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}

	type result struct {
		ids []int
		err error
	}
	original := make(chan result, 1)
	go func() {
		ids, err := c.Insert([][]string{{"tagged", "insert"}}, "rid-window")
		original <- result{ids, err}
	}()
	<-entered // the original is now sealed and stalled in its fsync

	retry := make(chan result, 1)
	go func() {
		ids, err := c.Insert([][]string{{"tagged", "insert"}}, "rid-window")
		retry <- result{ids, err}
	}()
	// Let the retry reach the in-flight check before releasing the fsync.
	for i := 0; i < 1000; i++ {
		c.wal.ioMu.Lock()
		_, inflight := c.wal.inflight["rid-window"]
		c.wal.ioMu.Unlock()
		if inflight {
			break
		}
	}
	close(release)

	orig, ret := <-original, <-retry
	if orig.err != nil {
		t.Fatalf("original insert: %v", orig.err)
	}
	if !errors.Is(ret.err, ErrDuplicateRequest) {
		t.Fatalf("retry during commit window: err = %v, want ErrDuplicateRequest", ret.err)
	}
	if len(ret.ids) != 1 || ret.ids[0] != orig.ids[0] {
		t.Fatalf("retry ids = %v, original %v", ret.ids, orig.ids)
	}
	if n := c.eng.Len(); n != before+1 {
		t.Fatalf("collection has %d records, want %d (no double insert)", n, before+1)
	}
	c.wal.ioMu.Lock()
	if len(c.wal.inflight) != 0 {
		t.Fatalf("in-flight registry not cleared: %v", c.wal.inflight)
	}
	c.wal.journal.syncHook = nil
	c.wal.ioMu.Unlock()
}

func TestAppendFailureHealsWithoutCommitInFlight(t *testing.T) {
	// A failed append poisons the shared buffered writer. With no commit in
	// flight there is no leader whose flush would surface the failure and
	// roll the journal back, so the append path must heal it directly — a
	// transient write error must not brick the collection.
	dir := t.TempDir()
	store, c := newGroupCommitCollection(t, dir)
	defer store.Close()
	if _, err := c.Insert([][]string{{"before"}}, ""); err != nil {
		t.Fatal(err)
	}
	durable := c.wal.journal.SyncedOffset()

	c.wal.journal.writeHook = func() error { return errors.New("transient write error") }
	if _, err := c.Insert([][]string{{"doomed"}}, ""); !errors.Is(err, ErrStorage) {
		t.Fatalf("insert during write failure: err = %v, want ErrStorage", err)
	}
	c.wal.ioMu.Lock()
	if got := c.wal.journal.Offset(); got != durable {
		t.Fatalf("journal offset %d after failed append, want rollback to %d", got, durable)
	}
	c.wal.journal.writeHook = nil
	c.wal.ioMu.Unlock()

	// The disk "recovered": the very next insert must succeed and replay
	// cleanly — no restart, no snapshot needed.
	ids, err := c.Insert([][]string{{"after", "recovery"}}, "")
	if err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if want := 3; ids[0] != want {
		t.Fatalf("post-recovery id = %d, want %d", ids[0], want)
	}
	store2, err := OpenStore(dir, StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	c2, err := store2.Get("gc")
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.eng.Len(); n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
}

func TestGroupCommitSyncFailure(t *testing.T) {
	dir := t.TempDir()
	store, c := newGroupCommitCollection(t, dir)
	defer store.Close()
	if _, err := c.Insert([][]string{{"before", "failure"}}, ""); err != nil {
		t.Fatal(err)
	}
	durable := c.wal.journal.SyncedOffset()

	// Break the fsync and hammer the collection: every batch must fail with
	// a storage error and the journal must roll back to the durable mark.
	c.wal.journal.syncHook = func() error { return errors.New("injected fsync failure") }
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = c.Insert([][]string{{fmt.Sprintf("doomed%d", w)}}, "")
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, ErrStorage) {
			t.Fatalf("insert %d during fsync failure: err = %v, want ErrStorage", w, err)
		}
	}
	c.wal.ioMu.Lock()
	if got := c.wal.journal.Offset(); got != durable {
		t.Fatalf("journal offset %d after failed commits, want rollback to %d", got, durable)
	}
	c.wal.journal.syncHook = nil
	c.wal.ioMu.Unlock()

	// The rollback healed the journal: inserts work again and none of the
	// failed batches left a trace in memory or on disk.
	ids, err := c.Insert([][]string{{"after", "recovery"}}, "")
	if err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if want := 3; ids[0] != want {
		t.Fatalf("post-recovery id = %d, want %d (failed batches must not consume ids)", ids[0], want)
	}
	if n := c.eng.Len(); n != 4 {
		t.Fatalf("collection has %d records, want 4", n)
	}
}

// TestInternBetweenEncodeAndApply runs the one interleaving the id frames
// must survive: batch A is encoded while a token of it is still new — so
// its frames carry that token's bytes — and batch B, ahead of A in the
// journal, interns the token before A applies. A later batch C, encoded
// after both, carries the token's id. The leader, a restart's replay and a
// follower applying the journal as one chunk must then snapshot to
// byte-identical index and vocabulary files. B's fsync is held until A sits
// in the next commit group, which makes the interleaving deterministic.
func TestInternBetweenEncodeAndApply(t *testing.T) {
	dir := t.TempDir()
	store, c := newGroupCommitCollection(t, dir)
	jw := c.wal.journal
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	jw.syncHook = func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return jw.f.Sync()
	}
	errs := make(chan error, 2)
	go func() {
		_, err := c.Insert([][]string{{"b1", "shared", "record"}}, "rid-b")
		errs <- err
	}()
	<-entered
	go func() {
		_, err := c.Insert([][]string{{"a1", "shared"}, {"seed", "shared", "a2"}}, "")
		errs <- err
	}()
	for c.wal.status().depth < 1 {
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Insert([][]string{{"shared", "c1", "one"}}, "rid-c"); err != nil {
		t.Fatal(err)
	}
	shared, ok := c.voc.Lookup("shared")
	if !ok {
		t.Fatal(`"shared" was never interned`)
	}
	journal, err := os.ReadFile(journalPath(c.gens.dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := newFrameScanner(journal, 0, "journal").scanAll()
	if err != nil || len(entries) != 4 {
		t.Fatalf("journal: %+v, %v", entries, err)
	}
	for i, e := range entries[:3] {
		if !slices.Contains(e.Tokens, "shared") {
			t.Fatalf("frame %d carries %+v: \"shared\" was known when it was encoded", i, e)
		}
	}
	if !slices.Contains(entries[3].IDs, shared) || slices.Contains(entries[3].Tokens, "shared") {
		t.Fatalf("the last frame carries %+v, want the id %d of \"shared\"", entries[3], shared)
	}

	// The replay: the directory as a crash leaves it, opened elsewhere.
	replayDir := t.TempDir()
	if err := os.CopyFS(filepath.Join(replayDir, "gc"), os.DirFS(c.gens.dir)); err != nil {
		t.Fatal(err)
	}
	replayStore, err := OpenStore(replayDir, StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer replayStore.Close()
	// The follower: the build's snapshot, then the journal as one chunk.
	followerStore, err := OpenStore(t.TempDir(), StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer followerStore.Close()
	follower := replicaFromSnapshot(t, dir, followerStore, "gc", 1)
	if _, applied, err := follower.ApplyReplicated(1, 0, journal); err != nil || applied != 4 {
		t.Fatalf("follower: %d applied, %v", applied, err)
	}

	var files [][2][]byte
	for _, s := range []*Store{store, replayStore, followerStore} {
		snap, err := s.Snapshot("gc")
		if err != nil {
			t.Fatal(err)
		}
		var f [2][]byte
		for i, path := range []string{indexPath(snap.gens.dir, 2), vocabPath(snap.gens.dir, 2)} {
			if f[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		files = append(files, f)
	}
	for i, who := range []string{"replay", "follower"} {
		if !bytes.Equal(files[i+1][0], files[0][0]) || !bytes.Equal(files[i+1][1], files[0][1]) {
			t.Errorf("the %s's index (%d bytes) or vocabulary (%d) differs from the leader's (%d, %d)",
				who, len(files[i+1][0]), len(files[i+1][1]), len(files[0][0]), len(files[0][1]))
		}
	}
}
