package repl

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gbkmv/internal/fsx"
	"gbkmv/internal/repl/faultnet"
	"gbkmv/internal/server"
)

// Storage chaos at the replication boundary: bootstrap transfers run over a
// faulty network AND a faulty local disk at the same time, and the follower
// must never install a snapshot it cannot verify against the leader's commit
// record.

// startFaultNode is startNode with a fault-injecting (or recording)
// filesystem under the store.
func startFaultNode(t *testing.T, dir string, fsys fsx.FS) *node {
	t.Helper()
	st, err := server.OpenStore(dir, server.StoreOptions{FS: fsys, Logf: t.Logf})
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

// TestChaosBootstrapTransferFaults runs a follower bootstrap with the
// network and the local disk misbehaving at once:
//
//  1. the first snapshot file transfer is cut mid-body — the per-file
//     size/CRC64 headers reject the truncated file and the bootstrap is
//     retried, never installed;
//  2. after the follower converges and restarts with a bit-flipped local
//     snapshot, load rejects it (a follower has no local parent to fall
//     back to) and the follower re-bootstraps from the leader — during
//     which its own disk silently corrupts a written file, so the
//     pre-commit re-read verification fails that attempt too and the next
//     one succeeds.
//
// Throughout, the follower must end byte-converged with the leader.
func TestChaosBootstrapTransferFaults(t *testing.T) {
	leader := startNode(t, t.TempDir())
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	insertMany(t, leader, "c", 300)

	// Phase 1: network truncation during the snapshot transfer.
	ft := &faultnet.Transport{Match: func(r *http.Request) bool {
		return strings.HasSuffix(r.URL.Path, "/repl/file")
	}}
	ft.CutNext(1)
	ffs := &fsx.FaultFS{Match: "index-"}
	fdir := t.TempDir()
	fnode := startFaultNode(t, fdir, ffs)
	f := newChaosFollower(t, fnode, leader.ts.URL, ft, nil)
	f.Start(context.Background())
	waitFor(t, 30*time.Second, "convergence through a truncated transfer", func() bool {
		return caughtUp(leader, fnode, "c")
	})
	if got := bootstraps(f); got != 1 {
		t.Fatalf("bootstraps = %d, want 1 (the truncated attempt must not count as installed)", got)
	}
	if l, fo := records(t, leader, "c"), records(t, fnode, "c"); l != fo {
		t.Fatalf("record counts diverged: leader %v, follower %v", l, fo)
	}

	// Phase 2: restart with a bit-flipped local snapshot; the re-bootstrap
	// it forces runs against a disk that silently corrupts one write.
	f.Close()
	fnode.crash()
	snaps, err := filepath.Glob(filepath.Join(fdir, "c", "index-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no local index snapshot to corrupt: %v %v", snaps, err)
	}
	corruptByte(t, snaps[len(snaps)-1])

	ffs2 := &fsx.FaultFS{Match: "index-"}
	ffs2.FlipBits(1)
	fnode2 := startFaultNode(t, fdir, ffs2)
	// The corrupt snapshot must be rejected at load, not served: a follower
	// has no local parent generation, so the collection is simply absent
	// until the re-bootstrap brings a verified copy.
	if _, err := fnode2.store.Get("c"); err == nil {
		t.Fatal("corrupt local snapshot was loaded and served")
	}
	f2 := newChaosFollower(t, fnode2, leader.ts.URL, nil, nil)
	f2.Start(context.Background())
	waitFor(t, 30*time.Second, "re-bootstrap through local disk corruption", func() bool {
		return caughtUp(leader, fnode2, "c")
	})
	if got := bootstraps(f2); got != 1 {
		t.Fatalf("bootstraps = %d, want 1", got)
	}
	if got := ffs2.Injected("flip"); got != 1 {
		t.Fatalf("injected flips = %d, want 1 (the corrupting write must have happened)", got)
	}
	// The silently corrupted attempt must be visible as a transfer-stage
	// verification failure.
	mb := metricsBody(t, fnode2)
	if !strings.Contains(mb, `gbkmv_snapshot_verify_failures_total{collection="c",stage="transfer"} 1`) {
		t.Fatalf("transfer-stage verification failure not booked:\n%s", grepLines(mb, "verify_failures"))
	}
	if l, fo := records(t, leader, "c"), records(t, fnode2, "c"); l != fo {
		t.Fatalf("record counts diverged after re-bootstrap: leader %v, follower %v", l, fo)
	}
}

// corruptByte XORs one byte in the middle of a file.
func corruptByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatalf("%s: empty file", path)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
