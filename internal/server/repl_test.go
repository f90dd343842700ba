package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gbkmv"
)

// getRaw issues a plain GET and returns the status, headers and body.
func getRaw(t *testing.T, ts *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func TestWALStreamServesJournalBytes(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir)
	buildRestaurants(t, ts, "c")
	for i := 0; i < 3; i++ {
		if code, m := doJSON(t, ts, "POST", "/collections/c/records",
			`{"records": [["wal", "entry"]]}`); code != http.StatusOK {
			t.Fatalf("insert: %d %v", code, m)
		}
	}
	journal, err := os.ReadFile(filepath.Join(dir, "c", "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(journal) == 0 {
		t.Fatal("journal empty after inserts")
	}

	code, hdr, body := getRaw(t, ts, "/collections/c/wal?gen=1&from=0")
	if code != http.StatusOK {
		t.Fatalf("wal: %d %s", code, body)
	}
	if !bytes.Equal(body, journal) {
		t.Fatalf("wal served %d bytes, journal has %d; bytes differ", len(body), len(journal))
	}
	if hdr.Get("X-Gbkmv-Generation") != "1" {
		t.Fatalf("generation header = %q", hdr.Get("X-Gbkmv-Generation"))
	}
	if got := hdr.Get("X-Gbkmv-Synced-Offset"); got != strconv.Itoa(len(journal)) {
		t.Fatalf("synced header = %q, want %d", got, len(journal))
	}
	if hdr.Get("X-Gbkmv-Wal-Entries") != "3" {
		t.Fatalf("entries header = %q, want 3", hdr.Get("X-Gbkmv-Wal-Entries"))
	}

	// Caught up, no wait: an immediate empty 200 with fresh headers.
	code, hdr, body = getRaw(t, ts, "/collections/c/wal?gen=1&from="+strconv.Itoa(len(journal)))
	if code != http.StatusOK || len(body) != 0 {
		t.Fatalf("caught-up wal: %d, %d bytes", code, len(body))
	}
	if hdr.Get("X-Gbkmv-Synced-Offset") != strconv.Itoa(len(journal)) {
		t.Fatalf("caught-up synced header = %q", hdr.Get("X-Gbkmv-Synced-Offset"))
	}

	// Past the durable frontier, or a generation never served: 410.
	if code, _, _ = getRaw(t, ts, "/collections/c/wal?gen=1&from="+strconv.Itoa(len(journal)+7)); code != http.StatusGone {
		t.Fatalf("over-frontier wal: %d, want 410", code)
	}
	if code, _, _ = getRaw(t, ts, "/collections/c/wal?gen=9&from=0"); code != http.StatusGone {
		t.Fatalf("unknown-generation wal: %d, want 410", code)
	}

	// Chunk bounding: max=1 still yields whole frames? No — max bounds raw
	// bytes; the follower's scanner handles the torn tail. Just check the
	// bound is respected and the prefix matches.
	code, _, body = getRaw(t, ts, "/collections/c/wal?gen=1&from=0&max=10")
	if code != http.StatusOK || len(body) != 10 || !bytes.Equal(body, journal[:10]) {
		t.Fatalf("bounded wal: %d, %d bytes", code, len(body))
	}
}

func TestWALStreamRequiresJournal(t *testing.T) {
	_, ts := newServer(t, "") // memory-only: no journal to stream
	buildRestaurants(t, ts, "c")
	if code, _, body := getRaw(t, ts, "/collections/c/wal?gen=0&from=0"); code != http.StatusConflict {
		t.Fatalf("memory-only wal: %d %s, want 409", code, body)
	}
	if code, _, _ := getRaw(t, ts, "/collections/nope/wal?gen=0&from=0"); code != http.StatusNotFound {
		t.Fatal("missing collection should 404")
	}
	if code, _, _ := getRaw(t, ts, "/collections/c/wal?gen=x&from=0"); code != http.StatusBadRequest {
		t.Fatal("bad gen should 400")
	}
}

func TestWALStreamLongPoll(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir)
	buildRestaurants(t, ts, "c")

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		code, _, body := getRaw(t, ts, "/collections/c/wal?gen=1&from=0&wait=10s")
		done <- result{code, body}
	}()
	// Give the long-poll time to park, then insert: the frontier moves and
	// the parked stream must wake with the new frames.
	time.Sleep(100 * time.Millisecond)
	if code, m := doJSON(t, ts, "POST", "/collections/c/records",
		`{"records": [["wake", "up"]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, m)
	}
	select {
	case r := <-done:
		if r.code != http.StatusOK || len(r.body) == 0 {
			t.Fatalf("long-poll: %d, %d bytes", r.code, len(r.body))
		}
		s := newFrameScanner(r.body, 0, "longpoll")
		entries, err := s.scanAll()
		if err != nil || len(entries) != 1 || entries[0].Tokens[0] != "wake" {
			t.Fatalf("long-poll entries = %v, %v", entries, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}
}

func TestWALGenerationHandoff(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir)
	buildRestaurants(t, ts, "c")
	if code, m := doJSON(t, ts, "POST", "/collections/c/records",
		`{"records": [["pre", "snapshot"]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, m)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "c", "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	final := len(journal)
	if code, m := doJSON(t, ts, "POST", "/collections/c/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, m)
	}
	// A follower that applied the old journal in full gets the handoff.
	code, hdr, body := getRaw(t, ts, "/collections/c/wal?gen=1&from="+strconv.Itoa(final))
	if code != http.StatusOK || len(body) != 0 {
		t.Fatalf("handoff: %d, %d bytes", code, len(body))
	}
	if hdr.Get("X-Gbkmv-Next-Generation") != "2" {
		t.Fatalf("next-generation header = %q, want 2", hdr.Get("X-Gbkmv-Next-Generation"))
	}
	// Any other old-generation position can't resume: the file is gone.
	if code, _, _ := getRaw(t, ts, "/collections/c/wal?gen=1&from=0"); code != http.StatusGone {
		t.Fatalf("stale old-gen offset: %d, want 410", code)
	}
}

func TestReplManifestAndFileTransfer(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir)
	buildRestaurants(t, ts, "c")

	code, m := doJSON(t, ts, "GET", "/collections/c/repl/manifest", "")
	if code != http.StatusOK {
		t.Fatalf("manifest: %d %v", code, m)
	}
	if m["generation"] != float64(1) || m["records"] != float64(3) || m["engine"] != "gbkmv" {
		t.Fatalf("manifest = %v", m)
	}

	for kind, path := range map[string]string{
		"meta":  filepath.Join(dir, "c", "meta.json"),
		"index": filepath.Join(dir, "c", "index-1.snap"),
		"vocab": filepath.Join(dir, "c", "vocab-1.snap"),
	} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		code, _, body := getRaw(t, ts, "/collections/c/repl/file?gen=1&kind="+kind)
		if code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("file %s: %d, %d bytes (want %d)", kind, code, len(body), len(want))
		}
	}
	if code, _, _ := getRaw(t, ts, "/collections/c/repl/file?gen=1&kind=journal"); code != http.StatusBadRequest {
		t.Fatal("bad kind should 400")
	}
	if code, _, _ := getRaw(t, ts, "/collections/c/repl/file?gen=5&kind=index"); code != http.StatusGone {
		t.Fatal("stale generation should 410")
	}
}

// fakeReplica is a replica role driven by the test: the server's side of
// the role without internal/repl.
type fakeReplica struct {
	store    *Store
	ready    atomic.Bool
	promoted atomic.Int32
}

func (f *fakeReplica) Leader() string { return "http://leader.example:7878" }
func (f *fakeReplica) Ready() (bool, string) {
	if f.ready.Load() {
		return true, ""
	}
	return false, "collection \"c\" is bootstrapping"
}
func (f *fakeReplica) ReplStats(name string) *ReplStats {
	return &ReplStats{Leader: f.Leader(), Bootstrapped: true, ChainDepth: 3}
}
func (f *fakeReplica) ChainDepth() int64 { return 3 }
func (f *fakeReplica) Promote() error {
	f.promoted.Add(1)
	f.store.SetReplica(nil)
	return nil
}

func TestFollowerWriteFencingAndReadyGate(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	buildRestaurants(t, ts, "c")
	rep := &fakeReplica{store: store}
	store.SetReplica(rep)

	client := &http.Client{CheckRedirect: func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse // observe the 307, don't follow it
	}}
	for _, tc := range []struct{ method, path, body string }{
		{"PUT", "/collections/x", restaurants},
		{"POST", "/collections/c/records", `{"records": [["nope"]]}`},
		{"POST", "/collections/c/snapshot", ""},
		{"DELETE", "/collections/c", ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("%s %s: %d, want 307", tc.method, tc.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != "http://leader.example:7878"+tc.path {
			t.Fatalf("%s %s: Location = %q", tc.method, tc.path, loc)
		}
	}

	// Reads keep working on the replica.
	if code, m := doJSON(t, ts, "POST", "/collections/c/search",
		`{"query": ["five", "guys"], "threshold": 0.5}`); code != http.StatusOK || m["count"] != float64(2) {
		t.Fatalf("replica search: %d %v", code, m)
	}
	_, m := doJSON(t, ts, "GET", "/collections/c/stats", "")
	if repl, _ := m["replication"].(map[string]any); m["role"] != "follower" || repl["chain_depth"] != float64(3) {
		t.Fatalf("stats role = %v, replication %v; want follower at depth 3", m["role"], m["replication"])
	}
	// The wal stream advertises the role's depth downstream.
	if _, hdr, _ := getRaw(t, ts, "/collections/c/wal?gen=1&from=0"); hdr.Get(hdrWALChainDepth) != "3" {
		t.Fatalf("wal chain depth = %q, want 3", hdr.Get(hdrWALChainDepth))
	}

	// The ready gate holds /readyz at 503 with the reason until it passes.
	code, m := doJSON(t, ts, "GET", "/readyz", "")
	if code != http.StatusServiceUnavailable || m["status"] != "replicating" || !strings.Contains(fmt.Sprint(m["reason"]), "bootstrapping") {
		t.Fatalf("gated readyz: %d %v", code, m)
	}
	rep.ready.Store(true)
	if code, _ := doJSON(t, ts, "GET", "/readyz", ""); code != http.StatusOK {
		t.Fatalf("ready readyz: %d", code)
	}

	// POST /promote runs the role's promotion, which leaves the role with one
	// store: the node is the leader, writes flow, a second promote is a 409.
	if code, m := doJSON(t, ts, "POST", "/promote", ""); code != http.StatusOK || m["promoted"] != true {
		t.Fatalf("promote: %d %v", code, m)
	}
	if code, _ := doJSON(t, ts, "POST", "/promote", ""); code != http.StatusConflict || rep.promoted.Load() != 1 {
		t.Fatalf("second promote: %d after %d promotions, want 409 after 1", code, rep.promoted.Load())
	}
	if code, m := doJSON(t, ts, "POST", "/collections/c/records", `{"records": [["promoted"]]}`); code != http.StatusOK {
		t.Fatalf("write after promotion: %d %v", code, m)
	}
	if _, m := doJSON(t, ts, "GET", "/collections/c/stats", ""); m["role"] != "leader" || m["replication"] != nil {
		t.Fatalf("promoted stats: role %v, replication %v", m["role"], m["replication"])
	}
	if _, hdr, _ := getRaw(t, ts, "/collections/c/wal?gen=1&from=0"); hdr.Get(hdrWALChainDepth) != "0" {
		t.Fatalf("promoted wal chain depth = %q, want 0", hdr.Get(hdrWALChainDepth))
	}
}

// replicaFromSnapshot copies the leader collection's committed snapshot
// files into a second store and installs it — the bootstrap file transfer,
// minus HTTP.
func replicaFromSnapshot(t *testing.T, leaderDir string, replica *Store, name string, gen uint64) *Collection {
	t.Helper()
	dir, err := replica.CollectionDir(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	srcIndex, srcVocab, srcMeta := ReplicaSnapshotPaths(filepath.Join(leaderDir, name), gen)
	dstIndex, dstVocab, dstMeta := ReplicaSnapshotPaths(dir, gen)
	for _, cp := range [][2]string{{srcIndex, dstIndex}, {srcVocab, dstVocab}, {srcMeta, dstMeta}} {
		b, err := os.ReadFile(cp[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp[1], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := replica.InstallReplica(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestApplyReplicated(t *testing.T) {
	leaderDir := t.TempDir()
	leaderStore, ts := newServer(t, leaderDir)
	buildRestaurants(t, ts, "c")
	leader, err := leaderStore.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Insert([][]string{{"first", "batch"}}, "rid-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Insert([][]string{{"second"}, {"third", "x"}}, "rid-2"); err != nil {
		t.Fatal(err)
	}
	frames, err := os.ReadFile(filepath.Join(leaderDir, "c", "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}

	replicaStore, err := OpenStore(t.TempDir(), StoreOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	replica := replicaFromSnapshot(t, leaderDir, replicaStore, "c", 1)

	// Generation and offset are verified before anything is written.
	if _, _, err := replica.ApplyReplicated(9, 0, frames); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("wrong generation: %v, want ErrReplDiverged", err)
	}
	if _, _, err := replica.ApplyReplicated(1, 5, frames); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("wrong offset: %v, want ErrReplDiverged", err)
	}

	// A chunk cut mid-frame applies its intact prefix and reports where to
	// resume — then the remainder finishes the job.
	off, applied, err := replica.ApplyReplicated(1, 0, frames[:len(frames)-3])
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || off >= int64(len(frames)) {
		t.Fatalf("torn chunk: applied %d entries to offset %d", applied, off)
	}
	off2, applied2, err := replica.ApplyReplicated(1, off, frames[off:])
	if err != nil {
		t.Fatal(err)
	}
	if applied2 != 1 || off2 != int64(len(frames)) {
		t.Fatalf("resumed chunk: applied %d entries to offset %d, want 1 to %d", applied2, off2, len(frames))
	}

	// The replica's journal is byte-identical to the leader's, and the
	// replicated entries are searchable.
	replicaJournal, err := os.ReadFile(filepath.Join(replicaStore.dir, "c", "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replicaJournal, frames) {
		t.Fatal("replica journal diverges from leader journal")
	}
	hits, total, err := replica.SearchRaw([]byte(`["second"]`), 0.9, 0, false, nil, nil)
	if err != nil || total != 1 {
		t.Fatalf("replica search: %d hits, total %d, err %v", len(hits), total, err)
	}

	// The duplicate-detection window rebuilt from the replicated frames: the
	// leader's acknowledged request ids are known here too.
	ids, err := replica.Insert([][]string{{"first", "batch"}}, "rid-1")
	if !errors.Is(err, ErrDuplicateRequest) {
		t.Fatalf("replicated rid retry: %v, want ErrDuplicateRequest", err)
	}
	if len(ids) != 1 {
		t.Fatalf("replicated rid retry ids = %v", ids)
	}

	// Gen/entry accounting matches the leader.
	gen, off3, entries := replica.ReplPosition()
	if gen != 1 || off3 != int64(len(frames)) || entries != 3 {
		t.Fatalf("position = gen %d, off %d, entries %d", gen, off3, entries)
	}
}

// TestInsertInvalidUTF8ReplaysIdentically: tokens (and a request id) that are
// not UTF-8, inserted through the Go API, intern live as what their frames
// hold — so a crash-restart and a follower, which both intern from frames,
// reproduce the live vocabulary in order and every record. (While the live
// apply interned the raw bytes, "a\xff" and "a\xfe" were two elements on the
// leader and one, "a�", everywhere else.)
func TestInsertInvalidUTF8ReplaysIdentically(t *testing.T) {
	leaderDir := t.TempDir()
	leaderStore, err := OpenStore(leaderDir, StoreOptions{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	voc := gbkmv.NewVocabulary()
	eng, err := gbkmv.Build([]gbkmv.Record{voc.Record([]string{"seed", "one"})}, gbkmv.Options{BudgetUnits: 1000})
	if err != nil {
		t.Fatal(err)
	}
	live, err := leaderStore.Create("c", voc, eng)
	if err != nil {
		t.Fatal(err)
	}
	replicaStore, err := OpenStore(t.TempDir(), StoreOptions{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	replica := replicaFromSnapshot(t, leaderDir, replicaStore, "c", 1)

	if _, err := live.Insert([][]string{{"a\xff", "a\xfe", "ok"}, {"b\xff\xfe", "a�", "seed"}}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Insert([][]string{{"cut\xe2\x82", "a\xff"}}, "rid\xff"); err != nil {
		t.Fatal(err)
	}
	if _, ok := live.voc.Lookup("a\xff"); ok {
		t.Fatal("the live vocabulary holds a token no frame can")
	}
	if live.voc.Len() != 2+4 { // seed, one; a�, ok, b��, cut��
		t.Fatalf("live vocabulary of %d tokens", live.voc.Len())
	}
	frames, err := os.ReadFile(filepath.Join(leaderDir, "c", "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if _, applied, err := replica.ApplyReplicated(1, 0, frames); err != nil || applied != 3 {
		t.Fatalf("replica applied %d entries, %v", applied, err)
	}
	// The crash: the leader's directory opened again, nothing closed.
	reopenedStore, err := OpenStore(leaderDir, StoreOptions{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := reopenedStore.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Collection{"reopened": reopened, "replica": replica} {
		if c.voc.Len() != live.voc.Len() || c.eng.Len() != live.eng.Len() {
			t.Fatalf("%s: %d tokens, %d records; live %d, %d", name, c.voc.Len(), c.eng.Len(), live.voc.Len(), live.eng.Len())
		}
		for id := 0; id < live.voc.Len(); id++ {
			if got, want := c.voc.Token(gbkmv.Element(id)), live.voc.Token(gbkmv.Element(id)); got != want {
				t.Fatalf("%s: token %d is %q, live %q", name, id, got, want)
			}
		}
		for i := 0; i < live.eng.Len(); i++ {
			if got, want := c.eng.Record(i), live.eng.Record(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: record %d is %v, live %v", name, i, got, want)
			}
		}
		// The request id is remembered as its frames spell it, by all three.
		if _, err := c.Insert([][]string{{"again"}}, "rid\xff"); !errors.Is(err, ErrDuplicateRequest) {
			t.Fatalf("%s: retry of the request id: %v", name, err)
		}
	}
	if _, err := live.Insert([][]string{{"again"}}, "rid�"); !errors.Is(err, ErrDuplicateRequest) {
		t.Fatalf("live: retry of the request id as its frames spell it: %v", err)
	}
}
