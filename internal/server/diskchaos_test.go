package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"gbkmv/internal/fsx"
)

// Disk-chaos suite: every storage fault class injected through fsx.FaultFS
// (and raw on-disk corruption) against a live store. The acceptance bar, per
// fault class: the store either rejects the write durably (rollback, no
// acked loss), quarantines the corrupt generation and falls back, or enters
// explicit read-only degradation — it never loads a corrupt snapshot
// silently and never loses an acknowledged insert.

// newChaosServer builds a store over a FaultFS and serves it.
func newChaosServer(t *testing.T, dir string, ffs *fsx.FaultFS) (*Store, *httptest.Server) {
	t.Helper()
	store, err := OpenStore(dir, StoreOptions{FS: ffs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(store))
	t.Cleanup(ts.Close)
	return store, ts
}

// storeMetrics scrapes the store's registry as Prometheus text.
func storeMetrics(t *testing.T, store *Store) string {
	t.Helper()
	var sb strings.Builder
	if err := store.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestDiskChaosJournalEIOReadOnlyAndRecover: an EIO on the journal write
// path fails the insert with a 5xx, rolls the journal back (the insert is
// not acked, so nothing is lost), flips the collection into read-only mode
// — writes shed 503, reads keep serving — and the storage probe restores
// writability once the disk heals.
func TestDiskChaosJournalEIOReadOnlyAndRecover(t *testing.T) {
	ffs := &fsx.FaultFS{Match: "journal-"}
	store, ts := newChaosServer(t, t.TempDir(), ffs)
	defer store.Close()
	buildRestaurants(t, ts, "rest")
	if code, m := doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["acked", "ok"]]}`); code != http.StatusOK {
		t.Fatalf("healthy insert: %d %v", code, m)
	}

	ffs.FailWrites(1, syscall.EIO)
	code, m := doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["doomed"]]}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("insert under EIO: %d %v, want 500", code, m)
	}
	c, err := store.Get("rest")
	if err != nil {
		t.Fatal(err)
	}
	if ro, reason := c.ReadOnlyState(); !ro || reason == "" {
		t.Fatalf("EIO must flip read-only, got ro=%v reason=%q", ro, reason)
	}

	// Writes shed with a retryable 503 while reads keep serving.
	code, m = doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["shed"]]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("insert in read-only mode: %d %v, want 503", code, m)
	}
	if code, m := doJSON(t, ts, "POST", "/collections/rest/search", `{"query": ["five", "guys"], "threshold": 0.5}`); code != http.StatusOK || m["count"] != float64(2) {
		t.Fatalf("read in read-only mode: %d %v", code, m)
	}
	if _, m := doJSON(t, ts, "GET", "/healthz", ""); m["status"] != "degraded" {
		t.Fatalf("healthz in read-only mode: %v, want degraded", m)
	}

	// The fault was one-shot: the disk is healthy again, so the probe clears
	// read-only and writes flow.
	store.probeReadOnly()
	if ro, _ := c.ReadOnlyState(); ro {
		t.Fatal("probe on a healthy disk must clear read-only mode")
	}
	if code, m := doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["recovered"]]}`); code != http.StatusOK {
		t.Fatalf("insert after recovery: %d %v", code, m)
	}
	if _, m := doJSON(t, ts, "GET", "/healthz", ""); m["status"] != "ok" {
		t.Fatalf("healthz after recovery: %v", m)
	}
	mt := storeMetrics(t, store)
	if !strings.Contains(mt, `gbkmv_disk_errors_total{op="`) {
		t.Fatalf("disk error metric missing:\n%s", mt)
	}
	if !strings.Contains(mt, `gbkmv_shed_load_total{reason="storage_readonly"} 1`) {
		t.Fatal("storage_readonly shed not booked")
	}
}

// TestDiskChaosENOSPC: a full disk (sticky ENOSPC with partial writes)
// degrades to read-only; the rolled-back journal never acks the failed
// batch; recovery waits until the probe actually succeeds.
func TestDiskChaosENOSPC(t *testing.T) {
	ffs := &fsx.FaultFS{}
	store, ts := newChaosServer(t, t.TempDir(), ffs)
	defer store.Close()
	buildRestaurants(t, ts, "rest")

	ffs.WriteBudget(0) // disk full: every write fails, nothing persists
	if code, _ := doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["enospc"]]}`); code != http.StatusInternalServerError {
		t.Fatalf("insert on full disk: %d, want 500", code)
	}
	c, _ := store.Get("rest")
	if ro, _ := c.ReadOnlyState(); !ro {
		t.Fatal("ENOSPC must flip read-only")
	}
	// The probe fails too — the disk is still full — so the mode sticks.
	store.probeReadOnly()
	if ro, _ := c.ReadOnlyState(); !ro {
		t.Fatal("probe on a full disk must not clear read-only mode")
	}
	// Reads keep serving throughout.
	if code, _ := doJSON(t, ts, "POST", "/collections/rest/search", `{"query": ["five"], "threshold": 0.1}`); code != http.StatusOK {
		t.Fatalf("read on full disk: %d", code)
	}

	ffs.WriteBudget(-1) // space freed
	store.probeReadOnly()
	if ro, _ := c.ReadOnlyState(); ro {
		t.Fatal("probe after space freed must clear read-only mode")
	}
	if code, m := doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["room", "again"]]}`); code != http.StatusOK {
		t.Fatalf("insert after recovery: %d %v", code, m)
	}
	if got := ffs.Injected("enospc"); got < 1 {
		t.Fatalf("enospc injections = %d", got)
	}
}

// TestDiskChaosReplicaENOSPC: a follower's disk errors are as visible as a
// leader's. A replicated chunk that cannot be made durable is rolled back and
// refused as before, and it is also booked in gbkmv_disk_errors_total and
// degrades the replica to read-only until the probe sees the disk heal.
func TestDiskChaosReplicaENOSPC(t *testing.T) {
	leaderDir := t.TempDir()
	leaderStore, ts := newServer(t, leaderDir)
	defer leaderStore.Close()
	buildRestaurants(t, ts, "c")
	doJSON(t, ts, "POST", "/collections/c/records", `{"records": [["replicated", "entry"]]}`)
	frames, err := os.ReadFile(filepath.Join(leaderDir, "c", "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}

	ffs := &fsx.FaultFS{}
	replicaStore, _ := newChaosServer(t, t.TempDir(), ffs)
	defer replicaStore.Close()
	replica := replicaFromSnapshot(t, leaderDir, replicaStore, "c", 1)

	ffs.WriteBudget(0) // disk full
	off, applied, err := replica.ApplyReplicated(1, 0, frames)
	if !errors.Is(err, ErrStorage) || !strings.Contains(err.Error(), "replica journal") || off != 0 || applied != 0 {
		t.Fatalf("chunk on a full disk: offset %d, applied %d, err %v", off, applied, err)
	}
	if _, end, entries := replica.ReplPosition(); end != 0 || entries != 0 {
		t.Fatalf("failed chunk left the journal at %d with %d entries, want a rollback to 0", end, entries)
	}
	expo := storeMetrics(t, replicaStore)
	for _, want := range []string{
		`gbkmv_disk_errors_total{op="journal_flush"} 1`,
		`gbkmv_wal_rollbacks_total{collection="c"} 1`,
	} {
		if !strings.Contains(expo, want) {
			t.Fatalf("replica metrics lack %s", want)
		}
	}
	if got := replica.storageStatus(); got != "degraded:read-only" {
		t.Fatalf("storage status after ENOSPC on a replica = %q", got)
	}

	ffs.WriteBudget(-1) // space freed
	replicaStore.probeReadOnly()
	if got := replica.storageStatus(); got != "ok" {
		t.Fatalf("storage status after the probe healed = %q", got)
	}
	if off, applied, err := replica.ApplyReplicated(1, 0, frames); err != nil || off != int64(len(frames)) || applied != 1 {
		t.Fatalf("chunk after recovery: offset %d, applied %d, err %v", off, applied, err)
	}
}

// TestDiskChaosSnapshotFailureKeepsCommittedGeneration: EIO mid-snapshot
// (torn index write) aborts before the commit point — the committed
// generation stays intact on disk and keeps serving, the snapshot endpoint
// sheds while degraded, and a restart loads the old generation cleanly.
func TestDiskChaosSnapshotFailureKeepsCommittedGeneration(t *testing.T) {
	dir := t.TempDir()
	ffs := &fsx.FaultFS{Match: "index-"}
	store, ts := newChaosServer(t, dir, ffs)
	buildRestaurants(t, ts, "rest")
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["journaled", "entry"]]}`)
	want := searchBoth(t, ts, "rest")

	ffs.TornWrites(1)
	if _, err := store.Snapshot("rest"); err == nil {
		t.Fatal("snapshot through a torn write must fail")
	}
	c, _ := store.Get("rest")
	if ro, _ := c.ReadOnlyState(); !ro {
		t.Fatal("torn write (EIO) must flip read-only")
	}
	if code, _ := doJSON(t, ts, "POST", "/collections/rest/snapshot", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("snapshot while read-only: %d, want 503", code)
	}
	// The committed generation still serves.
	if got := searchBoth(t, ts, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("reads after failed snapshot:\n got  %v\n want %v", got, want)
	}
	if m, err := readMeta(fsx.Default, filepath.Join(dir, "rest")); err != nil || m.Generation != 1 {
		t.Fatalf("committed generation after failed snapshot: %v gen %d, want 1", err, m.Generation)
	}

	// Crash and restart: the half-written gen-2 file is dropped; generation 1
	// plus its journal replays to the same answers.
	ts.Close()
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	if got := searchBoth(t, ts2, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart after failed snapshot:\n got  %v\n want %v", got, want)
	}
}

// flipByte flips one bit in the middle of the file at path.
func flipByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatalf("%s is empty", path)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskChaosBitFlipFallbackDifferential is the kill-and-restart
// acceptance test: a committed snapshot bit-flipped after a crash is
// detected at load, quarantined, and the store falls back to the prior
// generation plus full journal replay — converging to search results
// identical to an uncorrupted twin that went through the same history.
func TestDiskChaosBitFlipFallbackDifferential(t *testing.T) {
	history := func(t *testing.T, dir string) {
		t.Helper()
		store, ts := newServer(t, dir)
		buildRestaurants(t, ts, "rest")
		doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["pre", "snapshot", "burgers"]]}`)
		if _, err := store.Snapshot("rest"); err != nil { // gen 2, parent 1
			t.Fatal(err)
		}
		doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["post", "snapshot", "fries"]]}`)
		// Kill without Close: acked inserts are fsynced by the group commit,
		// the shutdown snapshot never runs.
		ts.Close()
	}
	corrupt, control := t.TempDir(), t.TempDir()
	history(t, corrupt)
	history(t, control)

	// Post-crash corruption: one bit flips in the committed index snapshot —
	// and the crash itself tore the live journal's tail mid append (bytes
	// that were never acknowledged, so the twin's state is still the target).
	flipByte(t, filepath.Join(corrupt, "rest", "index-2.snap"))
	torn, err := encodeBatch([][]string{{"torn", "mid", "write"}}, "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(corrupt, "rest", "journal-2.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cstore, cts := newServer(t, control)
	defer cstore.Close()
	want := searchBoth(t, cts, "rest")

	store, ts := newServer(t, corrupt)
	defer store.Close()
	if got := searchBoth(t, ts, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback state diverged from uncorrupted twin:\n got  %v\n want %v", got, want)
	}
	c, err := store.Get("rest")
	if err != nil {
		t.Fatal(err)
	}
	if g := c.gens.quarantined.Load(); g != 2 {
		t.Fatalf("quarantined generation = %d, want 2", g)
	}
	if _, err := os.Stat(filepath.Join(corrupt, "rest", "quarantine-2", "index-2.snap")); err != nil {
		t.Fatalf("corrupt index not quarantined: %v", err)
	}
	if _, m := doJSON(t, ts, "GET", "/healthz", ""); m["status"] != "degraded" {
		t.Fatalf("healthz with quarantined generation: %v", m)
	}
	_, m := doJSON(t, ts, "GET", "/collections/rest/stats", "")
	storage, _ := m["storage"].(map[string]any)
	if storage == nil || storage["status"] != "quarantined:2" {
		t.Fatalf("stats storage block: %v", m["storage"])
	}
	if evs, _ := storage["quarantines"].([]any); len(evs) != 1 {
		t.Fatalf("quarantine events: %v", storage["quarantines"])
	}
	if !strings.Contains(storeMetrics(t, store), `gbkmv_snapshot_verify_failures_total{collection="rest",stage="load"} 1`) {
		t.Fatal("load-stage verify failure not booked")
	}
	if !strings.Contains(storeMetrics(t, store), `gbkmv_wal_torn_tail_recoveries_total{collection="rest"} 1`) {
		t.Fatal("the live journal's torn tail was truncated by the fallback load but not reported")
	}

	// Writes still flow (the disk is healthy — only history rotted), and a
	// fresh snapshot supersedes the quarantined generation.
	if code, m := doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["after", "fallback"]]}`); code != http.StatusOK {
		t.Fatalf("insert after fallback: %d %v", code, m)
	}
	if _, err := store.Snapshot("rest"); err != nil {
		t.Fatal(err)
	}
	if g := c.gens.quarantined.Load(); g != 0 {
		t.Fatalf("quarantine not cleared by repair snapshot: gen %d", g)
	}
	if _, m := doJSON(t, ts, "GET", "/healthz", ""); m["status"] != "ok" {
		t.Fatalf("healthz after repair snapshot: %v", m)
	}
}

// TestDiskChaosLyingFsync: a disk that reports fsync success while dropping
// the bytes (the nastiest fault class) is caught by the checksum at the
// next load — the commit record honestly names bytes that are not there —
// and the store falls back instead of serving a truncated snapshot.
func TestDiskChaosLyingFsync(t *testing.T) {
	dir := t.TempDir()
	ffs := &fsx.FaultFS{Match: "index-2.snap"}
	store, ts := newChaosServer(t, dir, ffs)
	buildRestaurants(t, ts, "rest")
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["pre", "snapshot", "burgers"]]}`)

	ffs.LieOnSync(true)
	if _, err := store.Snapshot("rest"); err != nil { // commits gen 2; index-2 "synced"
		t.Fatal(err)
	}
	ffs.LieOnSync(false)
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["post", "snapshot", "fries"]]}`)
	want := searchBoth(t, ts, "rest")
	ts.Close()

	// Power loss: everything honestly fsynced survives; index-2.snap — whose
	// fsync lied — is dropped back to its durable prefix (nothing).
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	if got := searchBoth(t, ts2, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery after lying fsync:\n got  %v\n want %v", got, want)
	}
	c, err := store2.Get("rest")
	if err != nil {
		t.Fatal(err)
	}
	if g := c.gens.quarantined.Load(); g != 2 {
		t.Fatalf("quarantined generation = %d, want 2", g)
	}
}

// TestDiskChaosScrubDetectsAndRepairs: the background scrubber's pass finds
// in-place corruption of a committed file — of a fresh build, and of a
// derived generation whose parent is retained — quarantines the generation
// while reads keep serving, and — on a leader — self-repairs by writing a
// fresh verified snapshot from the intact in-memory state.
func TestDiskChaosScrubDetectsAndRepairs(t *testing.T) {
	for _, tc := range []struct {
		file string
		gen  uint64 // the flipped file's generation
	}{{"vocab-1.snap", 1}, {"index-2.snap", 2}} {
		t.Run(tc.file, func(t *testing.T) { testScrubDetectsAndRepairs(t, tc.file, tc.gen) })
	}
}

func testScrubDetectsAndRepairs(t *testing.T, file string, gen uint64) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	defer store.Close()
	buildRestaurants(t, ts, "rest")
	if gen == 2 {
		doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["shake", "shack", "burgers"]]}`)
		doJSON(t, ts, "POST", "/collections/rest/snapshot", "")
	}
	want := searchBoth(t, ts, "rest")

	if rep := store.ScrubNow(); len(rep.Failures) != 0 || rep.Collections != 1 {
		t.Fatalf("clean scrub: %+v", rep)
	}

	// Four readers search from before the flip until after the follow-up
	// scrub, and not one read may fail.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var readsFailed atomic.Int64
	var ready, done sync.WaitGroup
	for range 4 {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			for first := true; ctx.Err() == nil; first = false {
				resp, err := ts.Client().Post(ts.URL+"/collections/rest/search", "application/json",
					strings.NewReader(`{"query": ["five", "guys"], "threshold": 0.5}`))
				if err != nil || resp.StatusCode != http.StatusOK {
					readsFailed.Add(1)
				}
				if err == nil {
					resp.Body.Close()
				}
				if first {
					ready.Done()
				}
			}
		}()
	}
	ready.Wait()

	flipByte(t, filepath.Join(dir, "rest", file))
	rep := store.ScrubNow()
	if len(rep.Failures) != 1 {
		t.Fatalf("scrub over corruption: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "rest", fmt.Sprintf("quarantine-%d", gen), file)); err != nil {
		t.Fatalf("corrupt %s not quarantined: %v", file, err)
	}
	// Leader self-repair: the in-memory state was never corrupt, so the scrub
	// snapshotted a verified next generation and cleared the quarantine flag.
	c, _ := store.Get("rest")
	if g := c.gens.quarantined.Load(); g != 0 {
		t.Fatalf("repair snapshot did not clear quarantine: gen %d", g)
	}
	if m, err := readMeta(fsx.Default, filepath.Join(dir, "rest")); err != nil || m.Generation != gen+1 {
		t.Fatalf("repair snapshot: %v gen %d, want %d", err, m.Generation, gen+1)
	}
	if got := searchBoth(t, ts, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("reads across scrub repair:\n got  %v\n want %v", got, want)
	}
	mt := storeMetrics(t, store)
	for _, want := range []string{
		`gbkmv_snapshot_verify_failures_total{collection="rest",stage="scrub"} 1`,
		`gbkmv_quarantined_generations_total{collection="rest"} 1`,
		"gbkmv_scrub_failures_total 1",
		"gbkmv_scrub_passes_total 2",
	} {
		if !strings.Contains(mt, want) {
			t.Fatalf("metric %q missing:\n%s", want, mt)
		}
	}
	// The repaired generation passes the next pass.
	if rep := store.ScrubNow(); len(rep.Failures) != 0 {
		t.Fatalf("scrub after repair: %+v", rep)
	}
	stop()
	done.Wait()
	if bad := readsFailed.Load(); bad > 0 {
		t.Fatalf("%d reads failed through corruption, scrub and repair", bad)
	}
}

// TestDiskChaosSilentBitFlipOnWrite: a disk that corrupts bytes on the way
// down while reporting success is caught at the next load by the checksum
// computed from the bytes the writer *meant* to write.
func TestDiskChaosSilentBitFlipOnWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := &fsx.FaultFS{Match: "vocab-2.snap"}
	store, ts := newChaosServer(t, dir, ffs)
	buildRestaurants(t, ts, "rest")
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["pre", "snapshot", "burgers"]]}`)

	ffs.FlipBits(1)
	if _, err := store.Snapshot("rest"); err != nil { // silently corrupted on disk
		t.Fatal(err)
	}
	if got := ffs.Injected("flip"); got != 1 {
		t.Fatalf("flip injections = %d", got)
	}
	want := searchBoth(t, ts, "rest")
	ts.Close()

	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	if got := searchBoth(t, ts2, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery after silent write corruption:\n got  %v\n want %v", got, want)
	}
	c, err := store2.Get("rest")
	if err != nil {
		t.Fatal(err)
	}
	if g := c.gens.quarantined.Load(); g != 2 {
		t.Fatalf("quarantined generation = %d, want 2", g)
	}
}
