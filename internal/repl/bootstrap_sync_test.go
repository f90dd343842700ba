package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gbkmv/internal/fsx"
)

// recordingFS logs the operations that make or undo a commit — Rename,
// SyncDir, Remove, RemoveAll — in order, and fails the next failDirSyncs
// SyncDir calls.
type recordingFS struct {
	fsx.FS
	mu           sync.Mutex
	ops          []string
	failDirSyncs int
}

func (r *recordingFS) log(op string, err error) error {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
	return err
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	return r.log("rename "+filepath.Base(oldpath)+" "+newpath, r.FS.Rename(oldpath, newpath))
}

func (r *recordingFS) Remove(name string) error { return r.log("remove "+name, r.FS.Remove(name)) }

func (r *recordingFS) RemoveAll(path string) error {
	return r.log("remove "+path, r.FS.RemoveAll(path))
}

func (r *recordingFS) SyncDir(dir string) error {
	r.mu.Lock()
	fail := r.failDirSyncs > 0
	if fail {
		r.failDirSyncs--
	}
	r.mu.Unlock()
	if fail {
		return r.log("syncdir-failed "+dir, errors.New("injected directory sync failure"))
	}
	return r.log("syncdir "+dir, r.FS.SyncDir(dir))
}

// TestBootstrapSyncsTheCommit: a follower's bootstrap makes its meta.json
// rename durable before anything removes a file — the directory is synced
// after the rename and before the next Remove — and a failed directory sync
// fails the bootstrap, which is retried rather than installed.
func TestBootstrapSyncsTheCommit(t *testing.T) {
	leader := startNode(t, t.TempDir())
	if code, m := leader.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	insertMany(t, leader, "c", 50)

	for _, failing := range []int{0, 1} {
		t.Run(fmt.Sprintf("failing=%d", failing), func(t *testing.T) {
			rec := &recordingFS{FS: fsx.Default, failDirSyncs: failing}
			fdir := t.TempDir()
			fnode := startFaultNode(t, fdir, rec)
			f := newFollower(t, fnode, leader.ts.URL)
			f.Start(context.Background())
			waitFor(t, 30*time.Second, "convergence", func() bool { return caughtUp(leader, fnode, "c") })
			if got := bootstraps(f); got != 1 {
				t.Fatalf("bootstraps = %d, want 1", got)
			}
			f.Close()

			rec.mu.Lock()
			ops := append([]string(nil), rec.ops...)
			rec.mu.Unlock()
			dir := filepath.Join(fdir, "c")
			renames, failed := 0, 0
			for i, op := range ops {
				if op == "syncdir-failed "+dir {
					failed++
				}
				if op != "rename meta.json.tmp "+filepath.Join(dir, "meta.json") {
					continue
				}
				renames++
				synced := false
				for _, next := range ops[i+1:] {
					if next == "syncdir "+dir || next == "syncdir-failed "+dir {
						synced = true
						break
					}
					if strings.HasPrefix(next, "remove ") {
						t.Fatalf("%q before the directory sync after the rename; operations %q", next, ops)
					}
				}
				if !synced {
					t.Fatalf("no directory sync after the rename; operations %q", ops)
				}
			}
			if renames != 1+failing || failed != failing {
				t.Fatalf("%d meta.json renames, %d failed directory syncs; want %d and %d: operations %q", renames, failed, 1+failing, failing, ops)
			}
		})
	}
}
