package repl

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gbkmv/internal/repl/faultnet"
)

// Chaos tests: the failover and fault-injection acceptance suite. Each test
// wires real nodes (persistent stores behind httptest servers) together
// through a faultnet.Transport and proves the replication layer's promises
// hold while the network misbehaves and leaders die mid-stream: convergence
// to byte-identical journals, no divergence past the fenced frontier, and
// bounded, write-available promotion.

// newChaosFollower is newFollower with a fault-injecting client and optional
// changes to its options.
func newChaosFollower(t *testing.T, n *node, leaderURL string, ft *faultnet.Transport, mut func(*Options)) *Follower {
	t.Helper()
	opt := Options{
		Leader:       leaderURL,
		Store:        n.store,
		PollInterval: 50 * time.Millisecond,
		Wait:         500 * time.Millisecond,
		Logf:         t.Logf,
	}
	if ft != nil {
		opt.Client = &http.Client{Transport: ft}
	}
	if mut != nil {
		mut(&opt)
	}
	f, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// journalBytes reads a collection's journal file for a generation.
func journalBytes(t *testing.T, dir, coll string, gen uint64) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, coll, fmt.Sprintf("journal-%d.log", gen)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func records(t *testing.T, n *node, coll string) float64 {
	t.Helper()
	code, m := n.doJSON(t, "GET", "/collections/"+coll+"/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, m)
	}
	return num(m, "num_records")
}

func metricsBody(t *testing.T, n *node) string {
	t.Helper()
	resp, err := http.Get(n.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// TestChaosStreamFaults runs live traffic through every transport fault —
// drops, a partition, chunks cut mid-frame, added latency, slow reads — and
// requires full convergence with exactly one bootstrap: transport faults are
// retried through, never "resolved" by throwing replica state away.
func TestChaosStreamFaults(t *testing.T) {
	leader := startNode(t, t.TempDir())
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	ft := &faultnet.Transport{}
	fnode := startNode(t, t.TempDir())
	f := newChaosFollower(t, fnode, leader.ts.URL, ft, nil)
	f.Start(context.Background())
	waitFor(t, 30*time.Second, "initial convergence", func() bool {
		return caughtUp(leader, fnode, "c")
	})

	rounds := []struct {
		name  string
		fault func()
		clear func()
	}{
		{"drops", func() { ft.Drop(5) }, nil},
		{"cut mid-frame", func() { ft.CutNext(3) }, nil},
		{"latency+slow reads", func() { ft.Delay(30 * time.Millisecond); ft.SlowRead(256 << 10) },
			func() { ft.Delay(0); ft.SlowRead(0) }},
		{"partition", func() { ft.Partition() }, ft.Heal},
	}
	for _, round := range rounds {
		round.fault()
		insertMany(t, leader, "c", 800)
		if round.clear != nil {
			// Let traffic run against the active fault before clearing it.
			time.Sleep(300 * time.Millisecond)
			round.clear()
		}
		waitFor(t, 30*time.Second, "convergence after "+round.name, func() bool {
			return caughtUp(leader, fnode, "c")
		})
	}

	if got := bootstraps(f); got != 1 {
		t.Fatalf("bootstraps = %d, want 1 (faults must not trigger re-bootstrap)", got)
	}
	if l, fo := records(t, leader, "c"), records(t, fnode, "c"); l != fo || l != 3+4*800 {
		t.Fatalf("record counts diverged: leader %v, follower %v, want %d", l, fo, 3+4*800)
	}
	lj := journalBytes(t, leader.dir, "c", 1)
	fj := journalBytes(t, fnode.dir, "c", 1)
	if !bytes.Equal(lj, fj) {
		t.Fatalf("journals diverged: leader %d bytes, follower %d bytes", len(lj), len(fj))
	}
	// The backoff surface: reconnects happened and were surfaced, and the
	// healthy stream has since zeroed the failure streak.
	st := fnode.replStats("c")
	if num(st, "stream_reconnects") < 1 {
		t.Fatalf("no reconnects recorded through %d drops: %v", ft.Drops(), st)
	}
	waitFor(t, 10*time.Second, "failure streak to clear", func() bool {
		st := fnode.replStats("c")
		return num(st, "consecutive_failures") == 0 && num(st, "reconnect_backoff_seconds") == 0
	})
}

// TestChaosDuplicatedChunkResync replays a previously served wal chunk at the
// follower — the retrying-proxy failure ApplyReplicated's own offset check
// cannot see, because the replayed response passes every frame CRC. The
// follower must reject it on the chunk-start echo, keep its journal
// untouched, and converge with the exact record count on a live retry.
func TestChaosDuplicatedChunkResync(t *testing.T) {
	leader := startNode(t, t.TempDir())
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	ft := &faultnet.Transport{Match: func(r *http.Request) bool {
		return strings.HasSuffix(r.URL.Path, "/wal")
	}}
	fnode := startNode(t, t.TempDir())
	f := newChaosFollower(t, fnode, leader.ts.URL, ft, nil)
	f.Start(context.Background())

	// A first batch, served and recorded by the transport.
	insertMany(t, leader, "c", 400)
	waitFor(t, 30*time.Second, "first batch", func() bool {
		return caughtUp(leader, fnode, "c")
	})

	// Replay that recorded chunk against the follower's *next* wal request:
	// its frames decode fine and its gen matches, but it starts at the wrong
	// offset — only the X-Gbkmv-Chunk-Start echo can catch it.
	ft.DuplicateNext(2)
	insertMany(t, leader, "c", 400)
	waitFor(t, 30*time.Second, "convergence past replayed chunks", func() bool {
		return caughtUp(leader, fnode, "c")
	})

	if got := bootstraps(f); got != 1 {
		t.Fatalf("bootstraps = %d, want 1 (replay must be dropped, not re-bootstrapped)", got)
	}
	// Exact count: had the replayed frames been appended, records would have
	// doubled up and the journals diverged.
	if l, fo := records(t, leader, "c"), records(t, fnode, "c"); l != fo || l != 3+2*400 {
		t.Fatalf("record counts: leader %v, follower %v, want %d", l, fo, 3+2*400)
	}
	if !bytes.Equal(journalBytes(t, leader.dir, "c", 1), journalBytes(t, fnode.dir, "c", 1)) {
		t.Fatal("journals diverged after chunk replay")
	}
	st := fnode.replStats("c")
	if num(st, "stream_reconnects") < 1 {
		t.Fatalf("replayed chunk did not surface as a stream error: %v", st)
	}
}

// TestChaosPromotionFencesDivergedLeader is the hard failover case: the old
// leader durably journaled writes the replica never received, then died with
// a torn frame on disk. After the replica's fenced promotion, the resurrected
// old leader must be 410-fenced (its offset is off the promoted node's
// frontier), demote by re-bootstrapping, and discard its divergent suffix —
// and during the whole window, writes at the replica 307-redirect until the
// instant promotion completes.
func TestChaosPromotionFencesDivergedLeader(t *testing.T) {
	ldir := t.TempDir()
	leader := startNode(t, ldir)
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	ft := &faultnet.Transport{}
	fdir := t.TempDir()
	fnode := startNode(t, fdir)
	f := newChaosFollower(t, fnode, leader.ts.URL, ft, nil)
	f.Start(context.Background())
	insertMany(t, leader, "c", 1000)
	waitFor(t, 30*time.Second, "pre-failure convergence", func() bool {
		return caughtUp(leader, fnode, "c")
	})

	// Partition the replica, then keep writing on the leader: these inserts
	// are durable and acknowledged on the leader but will never replicate —
	// the divergent suffix a failover must discard. The partition only bites
	// new requests, so wait for the in-flight long-poll to drain and the
	// stream to actually fail before writing.
	ft.Partition()
	waitFor(t, 10*time.Second, "partition to sever the stream", func() bool {
		return num(fnode.replStats("c"), "consecutive_failures") >= 1
	})
	// A replica cut off from its leader says so: /readyz names the failing
	// stream, its lag in seconds runs from the last healthy exchange, and
	// its lag in bytes and entries is -1, unknown, in /stats and on
	// /metrics — none of them reads the last headers' zero.
	code, m := fnode.doJSON(t, "GET", "/readyz", "")
	if reason := fmt.Sprint(m["reason"]); code != http.StatusServiceUnavailable ||
		!strings.Contains(reason, `"c"`) || !strings.Contains(reason, "consecutive failures") {
		t.Fatalf("partitioned follower readyz: %d %v, want 503 naming the failing stream", code, m)
	}
	if st := fnode.replStats("c"); num(st, "replica_lag_seconds") <= 0 ||
		num(st, "replica_lag_bytes") != -1 || num(st, "replica_lag_entries") != -1 {
		t.Fatalf("partitioned follower reports %v, want lag seconds > 0 and lag bytes and entries -1", st)
	}
	if expo := metricsBody(t, fnode); !strings.Contains(expo, `gbkmv_repl_lag_bytes{collection="c"} -1`+"\n") ||
		!strings.Contains(expo, `gbkmv_repl_lag_entries{collection="c"} -1`+"\n") {
		t.Fatalf("partitioned follower's lag gauges are not -1:\n%s", expo)
	}
	if code, m := leader.doJSON(t, "POST", "/collections/c/records",
		`{"records": [["divergent", "doomed", "write"]]}`); code != http.StatusOK {
		t.Fatalf("divergent insert: %d %v", code, m)
	}
	// The leader dies mid-append on top of that: torn frame on disk.
	leader.crash()
	jpath := filepath.Join(ldir, "c", "journal-1.log")
	torn := rawFrame(t, []string{"torn", "never", "sealed"})
	jf, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(torn[:len(torn)-4]); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	// The promotion window: the replica still fences writes (307 with the
	// dead leader's address — clients spin on redirects, losing nothing).
	if code, _ := fnode.doJSON(t, "POST", "/collections/c/records", `{"records": [["early"]]}`); code != http.StatusTemporaryRedirect {
		t.Fatalf("pre-promotion write: %d, want 307", code)
	}

	// Fenced promotion via the admin endpoint.
	code, m = fnode.doJSON(t, "POST", "/promote", "")
	if code != http.StatusOK || m["promoted"] != true {
		t.Fatalf("promote: %d %v", code, m)
	}
	gens, _ := m["generations"].(map[string]any)
	if num(gens, "c") != 2 {
		t.Fatalf("promoted generation = %v, want 2", gens["c"])
	}
	if code, m := fnode.doJSON(t, "POST", "/promote", ""); code != http.StatusConflict {
		t.Fatalf("second promote: %d %v, want 409", code, m)
	}
	if code, m := fnode.doJSON(t, "GET", "/readyz", ""); code != http.StatusOK {
		t.Fatalf("promoted node not ready: %d %v", code, m)
	}
	// Writes flow the moment promotion returns.
	if code, m := fnode.doJSON(t, "POST", "/collections/c/records",
		`{"records": [["after", "failover"]]}`); code != http.StatusOK {
		t.Fatalf("post-promotion write: %d %v", code, m)
	}

	// Resurrect the old leader as a follower of the promoted node. Startup
	// replay truncates its torn tail but keeps the durable divergent insert,
	// so its stream position is past the fenced frontier: 410, re-bootstrap,
	// divergent suffix gone.
	oldNode := startNode(t, ldir)
	of := newChaosFollower(t, oldNode, fnode.ts.URL, nil, nil)
	of.Start(context.Background())
	waitFor(t, 30*time.Second, "old leader to demote and converge", func() bool {
		return caughtUp(fnode, oldNode, "c")
	})
	if got := bootstraps(of); got != 1 {
		t.Fatalf("demotion bootstraps = %d, want 1 (divergence forces a re-bootstrap)", got)
	}
	// The fencing happened and was counted on the promoted node.
	if expo := metricsBody(t, fnode); !strings.Contains(expo, `gbkmv_repl_fencing_rejections_total{collection="c"}`) ||
		!strings.Contains(expo, "gbkmv_repl_promotions_total 1") {
		t.Fatalf("promoted node metrics missing fencing/promotion counters:\n%s", expo)
	}

	// Divergent and torn writes exist nowhere; the post-failover write is
	// everywhere; journals are byte-identical.
	nj := journalBytes(t, fnode.dir, "c", 2)
	oj := journalBytes(t, ldir, "c", 2)
	if !bytes.Equal(nj, oj) {
		t.Fatalf("post-failover journals diverge: %d vs %d bytes", len(nj), len(oj))
	}
	for _, node := range []*node{fnode, oldNode} {
		if _, m := node.doJSON(t, "POST", "/collections/c/search",
			`{"query": ["divergent", "doomed"], "threshold": 0.9}`); num(m, "count") != 0 {
			t.Fatalf("divergent write survived failover: %v", m)
		}
		if _, m := node.doJSON(t, "POST", "/collections/c/search",
			`{"query": ["after", "failover"], "threshold": 0.9}`); num(m, "count") < 1 {
			t.Fatalf("post-failover write missing: %v", m)
		}
	}
	// The demoted node now fences writes toward the new leader.
	code, m = oldNode.doJSON(t, "POST", "/collections/c/records", `{"records": [["no"]]}`)
	if code != http.StatusTemporaryRedirect || !strings.Contains(fmt.Sprint(m["leader"]), fnode.ts.URL) {
		t.Fatalf("demoted node write: %d %v, want 307 to %s", code, m, fnode.ts.URL)
	}
}

// TestChaosPromotionCleanDemotion is the fortunate failover: the replica was
// exactly caught up when the leader died, so the resurrected old leader's
// position equals the fenced frontier and it demotes through the ordinary
// generation handoff — no bootstrap, no transfer, byte-identical snapshots.
func TestChaosPromotionCleanDemotion(t *testing.T) {
	ldir := t.TempDir()
	leader := startNode(t, ldir)
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	fdir := t.TempDir()
	fnode := startNode(t, fdir)
	f := newChaosFollower(t, fnode, leader.ts.URL, nil, nil)
	f.Start(context.Background())
	insertMany(t, leader, "c", 500)
	waitFor(t, 30*time.Second, "convergence", func() bool {
		return caughtUp(leader, fnode, "c")
	})
	leader.crash()

	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if code, m := fnode.doJSON(t, "POST", "/collections/c/records",
		`{"records": [["new", "era"]]}`); code != http.StatusOK {
		t.Fatalf("post-promotion write: %d %v", code, m)
	}

	oldNode := startNode(t, ldir)
	of := newChaosFollower(t, oldNode, fnode.ts.URL, nil, nil)
	of.Start(context.Background())
	waitFor(t, 30*time.Second, "clean demotion", func() bool {
		return caughtUp(fnode, oldNode, "c")
	})
	if got := bootstraps(of); got != 0 {
		t.Fatalf("clean demotion bootstrapped %d times, want 0 (generation handoff)", got)
	}
	ni, nv := snapFiles(t, fnode.dir, "c", 2)
	oi, ov := snapFiles(t, ldir, "c", 2)
	if !bytes.Equal(ni, oi) || !bytes.Equal(nv, ov) {
		t.Fatal("demotion snapshots not byte-identical")
	}
	if !bytes.Equal(journalBytes(t, fnode.dir, "c", 2), journalBytes(t, ldir, "c", 2)) {
		t.Fatal("post-demotion journals diverge")
	}
}

// TestChaosChainedReplicaPromotion runs the three-node chain A ← B ← C: C
// bootstraps from and tails B, depth propagates down the wal headers, and a
// generation handoff flows through the intermediate. Then A is killed, B is
// promoted through POST /promote, and C follows it straight through the
// failover, converging byte-identically on the new generation.
func TestChaosChainedReplicaPromotion(t *testing.T) {
	leader := startNode(t, t.TempDir())
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	bnode := startNode(t, t.TempDir())
	fb := newChaosFollower(t, bnode, leader.ts.URL, nil, func(o *Options) {
		o.Wait = 200 * time.Millisecond
	})
	fb.Start(context.Background())
	cnode := startNode(t, t.TempDir())
	fc := newChaosFollower(t, cnode, bnode.ts.URL, nil, nil) // chained: follows the follower
	fc.Start(context.Background())

	insertMany(t, leader, "c", 1000)
	waitFor(t, 30*time.Second, "chain to converge", func() bool {
		return caughtUp(leader, bnode, "c") && caughtUp(bnode, cnode, "c")
	})
	if d := num(bnode.replStats("c"), "chain_depth"); d != 1 {
		t.Fatalf("B chain depth = %v, want 1", d)
	}
	waitFor(t, 10*time.Second, "C to learn depth 2", func() bool {
		return num(cnode.replStats("c"), "chain_depth") == 2
	})
	if !bytes.Equal(journalBytes(t, leader.dir, "c", 1), journalBytes(t, cnode.dir, "c", 1)) {
		t.Fatal("chained journals diverge pre-failover")
	}

	// Four readers at B from before the kill until C has caught up on it:
	// reads are what keeps the service up through the failover.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var readsOK, readsFailed atomic.Int64
	var readers sync.WaitGroup
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for ctx.Err() == nil {
				if code, _, err := bnode.get("POST", "/collections/c/search",
					`{"query": ["five", "guys"], "threshold": 0.5}`); err == nil && code == http.StatusOK {
					readsOK.Add(1)
				} else {
					readsFailed.Add(1)
				}
			}
		}()
	}

	// Kill the true leader and promote B by request; C must ride the
	// handoff without re-bootstrap.
	leader.crash()
	promoStart := time.Now()
	if code, m := bnode.doJSON(t, "POST", "/promote", ""); code != http.StatusOK || m["promoted"] != true {
		t.Fatalf("promote B: %d %v", code, m)
	}
	t.Logf("promotion took %v", time.Since(promoStart))
	if code, m := bnode.doJSON(t, "POST", "/collections/c/records",
		`{"records": [["chain", "survivor"]]}`); code != http.StatusOK {
		t.Fatalf("write on promoted node: %d %v", code, m)
	}
	waitFor(t, 30*time.Second, "C to follow the promoted node", func() bool {
		return caughtUp(bnode, cnode, "c")
	})
	stop()
	readers.Wait()
	ok, bad := readsOK.Load(), readsFailed.Load()
	t.Logf("reads at B through the failover: %d, %d failed", ok+bad, bad)
	if ok+bad == 0 || float64(ok) < 0.99*float64(ok+bad) {
		t.Fatalf("read availability at B %d/%d, want at least 99%%", ok, ok+bad)
	}
	if got := bootstraps(fc); got != 1 {
		t.Fatalf("C bootstrapped %d times, want 1 (handoff, not re-bootstrap)", got)
	}
	// Depth collapsed: B is the leader now, C is depth 1.
	waitFor(t, 10*time.Second, "C depth to collapse to 1", func() bool {
		return num(cnode.replStats("c"), "chain_depth") == 1
	})
	if d := fb.ChainDepth(); d != 0 || !strings.Contains(metricsBody(t, bnode), "gbkmv_repl_chain_depth 0\n") {
		t.Fatalf("promoted node chain depth = %d, want 0 (and on /metrics)", d)
	}
	if !bytes.Equal(journalBytes(t, bnode.dir, "c", 2), journalBytes(t, cnode.dir, "c", 2)) {
		t.Fatal("chained journals diverge post-failover")
	}
	if _, m := cnode.doJSON(t, "POST", "/collections/c/search",
		`{"query": ["chain", "survivor"], "threshold": 0.9}`); num(m, "count") < 1 {
		t.Fatalf("post-failover write not readable at chain end: %v", m)
	}
}
