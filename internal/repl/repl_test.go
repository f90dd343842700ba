package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbkmv/internal/server"
)

// node is one gbkmvd-shaped process under test: a persistent store behind an
// HTTP handler.
type node struct {
	dir   string
	store *server.Store
	ts    *httptest.Server
	done  bool
}

func startNode(t *testing.T, dir string) *node {
	t.Helper()
	return startNodeWith(t, dir, server.StoreOptions{})
}

// startNodeWith is startNode with store options (Logf is the test's).
func startNodeWith(t *testing.T, dir string, opt server.StoreOptions) *node {
	t.Helper()
	opt.Logf = t.Logf
	st, err := server.OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := &node{dir: dir, store: st, ts: httptest.NewServer(server.Handler(st))}
	t.Cleanup(func() {
		if !n.done {
			n.done = true
			n.ts.Close()
			n.store.Close()
		}
	})
	return n
}

// close shuts the node down cleanly (graceful stop: shutdown snapshot on
// leaders, journal close everywhere).
func (n *node) close(t *testing.T) {
	t.Helper()
	n.done = true
	n.ts.Close()
	if err := n.store.Close(); err != nil {
		t.Errorf("closing store: %v", err)
	}
}

// crash makes the node unreachable without closing the store: no shutdown
// snapshot, journals left exactly as the last fsync wrote them.
func (n *node) crash() {
	n.done = true
	n.ts.Close()
}

// get issues a request and decodes the JSON response without failing the
// test — safe from sampler goroutines and for polling not-yet-existing
// collections.
func (n *node) get(method, path, body string) (int, map[string]any, error) {
	req, err := http.NewRequest(method, n.ts.URL+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			return resp.StatusCode, nil, fmt.Errorf("%s %s: non-JSON response %q", method, path, raw)
		}
	}
	return resp.StatusCode, m, nil
}

// doJSON is get with test-fatal error handling, for the main goroutine.
func (n *node) doJSON(t *testing.T, method, path, body string) (int, map[string]any) {
	t.Helper()
	code, m, err := n.get(method, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, m
}

// replStats pulls the replication block out of a follower's /stats
// response; nil until the collection exists there.
func (n *node) replStats(coll string) map[string]any {
	code, m, err := n.get("GET", "/collections/"+coll+"/stats", "")
	if err != nil || code != http.StatusOK {
		return nil
	}
	repl, _ := m["replication"].(map[string]any)
	return repl
}

func num(m map[string]any, key string) float64 {
	v, _ := m[key].(float64)
	return v
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether the follower's view of coll has fully converged
// on the leader: same generation, zero byte and entry lag.
func caughtUp(leader, follower *node, coll string) bool {
	code, man, err := leader.get("GET", "/collections/"+coll+"/repl/manifest", "")
	if err != nil || code != http.StatusOK {
		return false
	}
	st := follower.replStats(coll)
	if st == nil {
		return false
	}
	return st["bootstrapped"] == true &&
		num(st, "generation") == num(man, "generation") &&
		num(st, "applied_offset_bytes") == num(man, "synced_offset") &&
		num(st, "replica_lag_bytes") == 0
}

const testCorpus = `{
	"records": [
		["five", "guys", "burgers", "and", "fries"],
		["five", "kitchen", "berkeley"],
		["in", "n", "out", "burgers"]
	],
	"options": {"budget_units": 100000, "buffer_bits": 64}
}`

// bulkSeq distinguishes request ids across insertMany calls — reusing a rid
// would trip the duplicate-insert window, which is exactly what it's for.
var bulkSeq atomic.Int64

// insertMany streams total records into the leader collection from a few
// concurrent writers, mimicking live traffic during replication.
func insertMany(t *testing.T, leader *node, coll string, total int) {
	t.Helper()
	c, err := leader.store.Get(coll)
	if err != nil {
		t.Fatal(err)
	}
	seq := bulkSeq.Add(1)
	const writers, batch = 8, 25
	per := total / writers
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i += batch {
				recs := make([][]string, 0, batch)
				for j := 0; j < batch && i+j < per; j++ {
					recs = append(recs, []string{"bulk", fmt.Sprintf("w%d-r%d", w, i+j)})
				}
				if _, err := c.Insert(recs, fmt.Sprintf("bulk-%d-%d-%d", seq, w, i)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatalf("bulk insert: %v", err)
	}
}

func newFollower(t *testing.T, n *node, leaderURL string) *Follower {
	t.Helper()
	f, err := New(Options{
		Leader:       leaderURL,
		Store:        n.store,
		PollInterval: 50 * time.Millisecond,
		Wait:         500 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close) // idempotent; stops stream goroutines before node cleanup
	return f
}

// snapFiles returns the index and vocabulary snapshot bytes of a collection
// directory at a generation.
// bootstraps is how many collection bootstraps the follower performed, as
// its duration histogram counted them. A follower restarting with intact
// local state resumes from its journal instead of bootstrapping.
func bootstraps(f *Follower) uint64 { return f.mBootstrap.Snapshot().Count }

func snapFiles(t *testing.T, dir, coll string, gen uint64) ([]byte, []byte) {
	t.Helper()
	index, vocab, _ := server.ReplicaSnapshotPaths(filepath.Join(dir, coll), gen)
	ib, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := os.ReadFile(vocab)
	if err != nil {
		t.Fatal(err)
	}
	return ib, vb
}

// TestFollowerEndToEnd is the acceptance run: bootstrap from snapshot +
// journal tail, tail 10k streamed inserts to zero lag, serve identical
// reads, fence writes, expose lag in /stats and /metrics, survive a
// follower restart with offset resume (no re-bootstrap), and follow a
// leader snapshot through the generation handoff to byte-identical state.
func TestFollowerEndToEnd(t *testing.T) {
	leader := startNode(t, t.TempDir())
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	// A journal tail the bootstrap must NOT lose: these precede the follower,
	// so they arrive via the wal stream on top of the transferred snapshot.
	if code, m := leader.doJSON(t, "POST", "/collections/c/records",
		`{"records": [["tail", "before", "follower"]]}`); code != http.StatusOK {
		t.Fatalf("tail insert: %d %v", code, m)
	}

	fdir := t.TempDir()
	fnode := startNode(t, fdir)
	f := newFollower(t, fnode, leader.ts.URL)
	// Fencing and the ready gate engage at New, before Start: a cold replica
	// is never ready and never takes writes.
	if code, m := fnode.doJSON(t, "GET", "/readyz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("cold readyz: %d %v", code, m)
	}
	if code, _ := fnode.doJSON(t, "POST", "/collections/c/records", `{"records": [["no"]]}`); code != http.StatusTemporaryRedirect {
		t.Fatalf("cold write: %d, want 307", code)
	}
	f.Start(context.Background())

	// 10k live inserts while the follower tails.
	insertMany(t, leader, "c", 10000)
	waitFor(t, 60*time.Second, "follower to catch up 10k inserts", func() bool {
		return caughtUp(leader, fnode, "c")
	})
	if got := bootstraps(f); got != 1 {
		t.Fatalf("bootstraps = %d, want 1", got)
	}

	// Quiescent lag is zero in /stats (bytes, entries and seconds)...
	st := fnode.replStats("c")
	if num(st, "replica_lag_bytes") != 0 || num(st, "replica_lag_entries") != 0 || num(st, "replica_lag_seconds") != 0 {
		t.Fatalf("quiescent lag = %v", st)
	}
	// ...and in /metrics.
	resp, err := http.Get(fnode.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`gbkmv_repl_lag_bytes{collection="c"} 0`,
		`gbkmv_repl_lag_entries{collection="c"} 0`,
		`gbkmv_repl_lag_seconds{collection="c"} 0`,
	} {
		if !strings.Contains(string(expo), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	if code, _ := fnode.doJSON(t, "GET", "/readyz", ""); code != http.StatusOK {
		t.Fatal("caught-up follower not ready")
	}

	// Reads return identical results on both nodes — the engine state is
	// the same bytes, so even estimation error matches exactly.
	query := `{"query": ["bulk"], "threshold": 0.9}`
	_, lm := leader.doJSON(t, "POST", "/collections/c/search", query)
	_, fm := fnode.doJSON(t, "POST", "/collections/c/search", query)
	if lm["count"] != fm["count"] || num(lm, "count") < 1 {
		t.Fatalf("search diverges: leader %v, follower %v", lm["count"], fm["count"])
	}
	_, ls := leader.doJSON(t, "GET", "/collections/c/stats", "")
	_, fs := fnode.doJSON(t, "GET", "/collections/c/stats", "")
	if num(ls, "num_records") != 10004 || num(fs, "num_records") != 10004 {
		t.Fatalf("record counts: leader %v, follower %v, want 10004", ls["num_records"], fs["num_records"])
	}
	if code, _ := fnode.doJSON(t, "POST", "/collections/c/records", `{"records": [["no"]]}`); code != http.StatusTemporaryRedirect {
		t.Fatal("follower accepted a write")
	}

	// Kill and restart the follower. Its journal is durable, so the new
	// process resumes from its own offset — zero bootstraps — and picks up
	// the inserts it missed while down.
	f.Close()
	fnode.close(t)
	if code, m := leader.doJSON(t, "POST", "/collections/c/records",
		`{"records": [["while", "follower", "down"]]}`); code != http.StatusOK {
		t.Fatalf("offline insert: %d %v", code, m)
	}
	fnode = startNode(t, fdir)
	f2 := newFollower(t, fnode, leader.ts.URL)
	f2.Start(context.Background())
	waitFor(t, 30*time.Second, "restarted follower to resume", func() bool {
		return caughtUp(leader, fnode, "c")
	})
	if got := bootstraps(f2); got != 0 {
		t.Fatalf("restart bootstrapped %d times, want 0 (offset resume)", got)
	}

	// Leader snapshot: the follower is handed off to the new generation and
	// takes its own snapshot of the same state — byte-identical files.
	if code, m := leader.doJSON(t, "POST", "/collections/c/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, m)
	}
	waitFor(t, 30*time.Second, "generation handoff", func() bool {
		return caughtUp(leader, fnode, "c")
	})
	st = fnode.replStats("c")
	if num(st, "generation") != 2 {
		t.Fatalf("follower generation = %v, want 2", st["generation"])
	}
	li, lv := snapFiles(t, leader.dir, "c", 2)
	fi, fv := snapFiles(t, fnode.dir, "c", 2)
	if !bytes.Equal(li, fi) || !bytes.Equal(lv, fv) {
		t.Fatalf("post-handoff snapshots differ: index %d vs %d bytes, vocab %d vs %d bytes",
			len(li), len(fi), len(lv), len(fv))
	}
	f2.Close()
	fnode.close(t)
	leader.close(t)
}

// rawFrame encodes one journal frame as the server codes a record none of
// whose tokens its vocabulary holds yet — a format byte, no ids, each token
// as a length and its bytes — which applies on any vocabulary: the test
// forges a crash by appending directly to the leader's journal file.
func rawFrame(t *testing.T, tokens []string) []byte {
	t.Helper()
	payload := []byte{1, 0}
	for _, tok := range tokens {
		payload = append(binary.AppendUvarint(payload, uint64(len(tok))), tok...)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(hdr[0:4]))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// TestFailoverConsistency kills the leader mid-commit-group and proves the
// replica never ran ahead of durability: while traffic flows, the follower's
// applied offset stays at or below the leader's fsynced frontier; after the
// crash leaves a torn frame in the leader's journal, both sides converge to
// byte-identical journals (torn bytes nowhere) and byte-identical snapshots.
func TestFailoverConsistency(t *testing.T) {
	ldir := t.TempDir()
	leader := startNode(t, ldir)
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	fdir := t.TempDir()
	fnode := startNode(t, fdir)
	f := newFollower(t, fnode, leader.ts.URL)
	f.Start(context.Background())

	// Sampler: follower first, then leader — the leader's synced frontier
	// only grows within a generation, so follower_applied(t1) <=
	// leader_synced(t2) must hold whenever the follower never applies
	// unsealed bytes.
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	violations := make(chan string, 1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := fnode.replStats("c")
			code, man, err := leader.get("GET", "/collections/c/repl/manifest", "")
			if st == nil || err != nil || code != http.StatusOK {
				continue
			}
			if num(st, "generation") == num(man, "generation") &&
				num(st, "applied_offset_bytes") > num(man, "synced_offset") {
				select {
				case violations <- fmt.Sprintf("follower applied %v > leader synced %v",
					st["applied_offset_bytes"], man["synced_offset"]):
				default:
				}
				return
			}
		}
	}()
	insertMany(t, leader, "c", 2000)
	close(stop)
	samplerWG.Wait()
	select {
	case v := <-violations:
		t.Fatalf("durability violated: %s", v)
	default:
	}
	waitFor(t, 30*time.Second, "pre-crash convergence", func() bool {
		return caughtUp(leader, fnode, "c")
	})

	// Crash the leader: the HTTP server vanishes, the store is abandoned
	// without Close (no shutdown snapshot), and the journal gains one sealed
	// frame plus a torn half-written one — a process killed mid-append.
	leader.crash()
	jpath := filepath.Join(ldir, "c", "journal-1.log")
	intact := rawFrame(t, []string{"torn", "survivor"})
	torn := rawFrame(t, []string{"torn", "victim", "never", "acked"})
	jf, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(append(intact, torn[:len(torn)-5]...)); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	// The follower also restarts (pointing at the revived leader's new URL);
	// its durable journal means it resumes, not re-bootstraps.
	f.Close()
	fnode.close(t)
	leader2 := startNode(t, ldir) // startup replay truncates the torn tail
	fnode = startNode(t, fdir)
	f2 := newFollower(t, fnode, leader2.ts.URL)
	f2.Start(context.Background())
	waitFor(t, 30*time.Second, "post-crash convergence", func() bool {
		return caughtUp(leader2, fnode, "c")
	})
	if got := bootstraps(f2); got != 0 {
		t.Fatalf("post-crash restart bootstrapped %d times, want 0", got)
	}

	// Byte-identical journals: the sealed frame replicated, the torn one
	// exists nowhere.
	lj, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := os.ReadFile(filepath.Join(fdir, "c", "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, fj) {
		t.Fatalf("journals diverge after failover: leader %d bytes, follower %d bytes", len(lj), len(fj))
	}
	if bytes.Contains(lj, []byte("victim")) {
		t.Fatal("torn frame survived leader replay")
	}
	if !bytes.Contains(fj, []byte("survivor")) {
		t.Fatal("sealed crash-edge frame did not replicate")
	}
	// And the replicated record is queryable on the follower.
	if _, m := fnode.doJSON(t, "POST", "/collections/c/search",
		`{"query": ["torn", "survivor"], "threshold": 0.9}`); num(m, "count") < 1 {
		t.Fatalf("crash-edge record not searchable on follower: %v", m)
	}

	// Final state round-trips byte-identical through the generation handoff.
	if code, m := leader2.doJSON(t, "POST", "/collections/c/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, m)
	}
	waitFor(t, 30*time.Second, "post-crash handoff", func() bool {
		return caughtUp(leader2, fnode, "c")
	})
	li, lv := snapFiles(t, ldir, "c", 2)
	fi, fv := snapFiles(t, fdir, "c", 2)
	if !bytes.Equal(li, fi) || !bytes.Equal(lv, fv) {
		t.Fatalf("post-failover snapshots differ: index %d vs %d bytes, vocab %d vs %d bytes",
			len(li), len(fi), len(lv), len(fv))
	}
	f2.Close()
	fnode.close(t)
	leader2.close(t)
}
