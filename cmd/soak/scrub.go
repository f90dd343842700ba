package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Scrub drill (-scrub): the storage-integrity smoke test. An in-process node
// builds a collection, snapshots it, and keeps serving live read traffic
// while one of its committed snapshot files is bit-flipped on disk — the
// silent corruption a scrub exists to find. The drill then runs a scrub pass
// and requires the full repair story: the corruption detected, the bad
// generation quarantined (never deleted), the leader self-repaired by
// writing a fresh verified generation, the next scrub clean — and read
// availability at 100% throughout, because a scrub finding disk rot must
// never take the in-memory collection down with it.

// runScrubDrill executes the drill and returns the process exit code.
func runScrubDrill(dur time.Duration) int {
	const coll, seedN = drillCollection, 1000
	records := syntheticRecords(5000)
	client := &http.Client{Timeout: 10 * time.Second}

	root, err := os.MkdirTemp("", "soak-scrub-*")
	if err != nil {
		log.Printf("scrub drill: %v", err)
		return 1
	}
	defer os.RemoveAll(root)
	node, err := startDrillNode(filepath.Join(root, "n0"))
	if err != nil {
		log.Printf("scrub drill: %v", err)
		return 1
	}
	defer node.store.Close()
	defer node.ts.Close()
	base := node.ts.URL + "/collections/" + coll
	if err := buildCollection(client, base, records[:seedN]); err != nil {
		log.Printf("scrub drill: building %s: %v", coll, err)
		return 1
	}
	// Inserts past the seed set, then a snapshot: the committed generation
	// now has a parent on disk, exactly the state a long-running node is in.
	for i := seedN; i < seedN+50; i++ {
		if err := doInsert(client, base, records[i]); err != nil {
			log.Printf("scrub drill: insert: %v", err)
			return 1
		}
	}
	if err := post(client, http.MethodPost, base+"/snapshot", map[string]any{}); err != nil {
		log.Printf("scrub drill: snapshot: %v", err)
		return 1
	}
	gen := committedGeneration(node, coll)
	if gen == 0 {
		log.Printf("scrub drill: no committed generation after snapshot")
		return 1
	}

	// Live readers for the whole drill; corruption discovery and repair must
	// be invisible to them.
	var inserted atomic.Int64
	inserted.Store(int64(seedN + 50))
	var readsOK, readsFailed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if doSearch(client, base, records, &inserted, rng) == nil {
					readsOK.Add(1)
				} else {
					readsFailed.Add(1)
				}
			}
		}(r)
	}

	time.Sleep(dur / 2)

	// Flip one byte in the committed index snapshot — on disk, behind the
	// running server's back.
	snapPath := filepath.Join(node.dir, coll, fmt.Sprintf("index-%d.snap", gen))
	if err := flipByteInFile(snapPath); err != nil {
		log.Printf("scrub drill: corrupting %s: %v", snapPath, err)
		return 1
	}
	log.Printf("scrub drill: flipped a byte in %s", snapPath)

	failed := false
	rep := node.store.ScrubNow()
	if len(rep.Failures) != 1 {
		log.Printf("scrub drill: FAIL: scrub reported %d failures, want exactly 1: %v", len(rep.Failures), rep.Failures)
		failed = true
	} else {
		log.Printf("scrub drill: scrub detected: %s", rep.Failures[0])
	}
	// The corrupt generation must be quarantined aside, not deleted.
	qfile := filepath.Join(node.dir, coll, fmt.Sprintf("quarantine-%d", gen), fmt.Sprintf("index-%d.snap", gen))
	if _, err := os.Stat(qfile); err != nil {
		log.Printf("scrub drill: FAIL: corrupt snapshot not quarantined: %v", err)
		failed = true
	}
	// Leader self-repair: a fresh generation past the corrupt one, and a
	// clean follow-up scrub over it.
	if ngen := committedGeneration(node, coll); ngen <= gen {
		log.Printf("scrub drill: FAIL: no repair snapshot written (generation still %d)", ngen)
		failed = true
	}
	if rep2 := node.store.ScrubNow(); len(rep2.Failures) != 0 {
		log.Printf("scrub drill: FAIL: scrub after repair still failing: %v", rep2.Failures)
		failed = true
	}

	time.Sleep(dur / 2)
	close(stop)
	wg.Wait()

	ok, bad := readsOK.Load(), readsFailed.Load()
	fmt.Printf("\nscrub drill: %d reads through corruption + scrub + repair (%d failed)\n", ok+bad, bad)
	if bad > 0 {
		log.Printf("scrub drill: FAIL: %d reads failed; scrub and repair must not interrupt reads", bad)
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Println("scrub drill passed")
	return 0
}

// committedGeneration reads the collection's commit record through /stats.
func committedGeneration(node *drillNode, coll string) uint64 {
	resp, err := http.Get(node.ts.URL + "/collections/" + coll + "/stats")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var st struct {
		Generation uint64 `json:"generation"`
	}
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return 0
	}
	return st.Generation
}

func flipByteInFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("%s: empty file", path)
	}
	b[len(b)/2] ^= 0x40
	return os.WriteFile(path, b, 0o644)
}
