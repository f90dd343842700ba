package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gbkmv/internal/repl"
	"gbkmv/internal/server"
)

// Failover drill (-failover-drill): an in-process, multi-round
// kill-the-leader exercise. Each round runs a leader + auto-promoting
// follower pair with live write and read traffic, kills the leader
// mid-round, and measures (a) how long until the follower promotes itself
// and serves writes, and (b) read availability at the follower across the
// whole round — including the failover window, when reads are the only
// thing keeping the service alive. The promoted node then leads the next
// round against a fresh follower, so every round also re-proves bootstrap
// and convergence against a node that has a failover behind it.
//
// The drill exits non-zero when any promotion exceeds -promote-bound or
// read availability lands under -min-read-avail — the CI smoke contract.

// drillNode is one in-process gbkmvd: a persistent store behind an
// httptest server (real HTTP, real journals, crashable by closing the
// listener without closing the store).
type drillNode struct {
	dir   string
	store *server.Store
	ts    *httptest.Server
}

func startDrillNode(dir string) (*drillNode, error) {
	st, err := server.NewStore(dir, func(string, ...any) {})
	if err != nil {
		return nil, err
	}
	return &drillNode{dir: dir, store: st, ts: httptest.NewServer(server.Handler(st))}, nil
}

// crash closes the listener only: the store is abandoned exactly as a killed
// process would leave it (no shutdown snapshot, journal at its last fsync).
func (n *drillNode) crash() { n.ts.Close() }

// syntheticRecords generates a drill corpus: token overlap across records
// (the shared z-tokens) makes searches do real work.
func syntheticRecords(n int) [][]string {
	rng := rand.New(rand.NewSource(42))
	out := make([][]string, n)
	for i := range out {
		rec := []string{fmt.Sprintf("z%d", rng.Intn(97)), fmt.Sprintf("z%d", rng.Intn(97)), fmt.Sprintf("r%d", i)}
		out[i] = rec
	}
	return out
}

func waitDrill(d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %s waiting for %s", d, what)
}

// followerCaughtUp polls the follower's /stats replication block.
func followerCaughtUp(client *http.Client, node *drillNode, coll string) bool {
	resp, err := client.Get(node.ts.URL + "/collections/" + coll + "/stats")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var st struct {
		Replication *struct {
			Bootstrapped bool  `json:"bootstrapped"`
			LagBytes     int64 `json:"replica_lag_bytes"`
		} `json:"replication"`
	}
	if json.NewDecoder(resp.Body).Decode(&st) != nil || st.Replication == nil {
		return false
	}
	return st.Replication.Bootstrapped && st.Replication.LagBytes == 0
}

// runFailoverDrill executes the drill and returns the process exit code.
func runFailoverDrill(rounds int, roundDur, promoteBound time.Duration, minReadAvail float64) int {
	const coll, seedN = drillCollection, 1000
	records := syntheticRecords(5000)
	client := &http.Client{Timeout: 10 * time.Second}

	// Round zero's leader is built fresh; later rounds inherit the promoted
	// follower as their leader.
	root, err := os.MkdirTemp("", "soak-drill-*")
	if err != nil {
		log.Printf("drill: %v", err)
		return 1
	}
	defer os.RemoveAll(root)
	leader, err := startDrillNode(fmt.Sprintf("%s/n0", root))
	if err != nil {
		log.Printf("drill: %v", err)
		return 1
	}
	if err := buildCollection(client, leader.ts.URL+"/collections/"+coll, records[:seedN]); err != nil {
		log.Printf("drill: building %s: %v", coll, err)
		return 1
	}

	var inserted, next atomic.Int64
	inserted.Store(int64(seedN))
	next.Store(int64(seedN))
	var readsOK, readsFailed atomic.Int64
	var promoTimes []time.Duration
	failed := false

	for round := 1; round <= rounds; round++ {
		fnode, err := startDrillNode(fmt.Sprintf("%s/n%d", root, round))
		if err != nil {
			log.Printf("drill: %v", err)
			return 1
		}
		f, err := repl.New(repl.Options{
			Leader:              leader.ts.URL,
			Store:               fnode.store,
			PollInterval:        100 * time.Millisecond,
			Wait:                300 * time.Millisecond,
			PromoteOnLeaderLoss: true,
			LeaderLossWindow:    time.Second,
			Logf:                func(string, ...any) {},
		})
		if err != nil {
			log.Printf("drill: round %d follower: %v", round, err)
			return 1
		}
		f.Start(context.Background())
		if err := waitDrill(promoteBound, "follower to catch up", func() bool {
			return followerCaughtUp(client, fnode, coll)
		}); err != nil {
			log.Printf("drill: round %d: %v", round, err)
			return 1
		}

		// writeTarget flips from the doomed leader to the promoted follower
		// mid-round; writers shrug off the errors in between.
		var writeTarget atomic.Value
		writeTarget.Store(leader.ts.URL)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) { // writers
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					i := next.Add(1) - 1
					if int(i) >= len(records) {
						return
					}
					base := writeTarget.Load().(string) + "/collections/" + coll
					if doInsert(client, base, records[int(i)]) == nil {
						inserted.Store(i + 1)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}(w)
		}
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) { // readers: availability is measured at the follower
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + r)))
				base := fnode.ts.URL + "/collections/" + coll
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

		// Half a round of healthy traffic, then the leader dies.
		time.Sleep(roundDur / 2)
		leader.crash()
		killed := time.Now()
		err = waitDrill(promoteBound, "automatic promotion", f.Promoted)
		promoTime := time.Since(killed)
		if err != nil {
			log.Printf("drill: round %d: %v", round, err)
			failed = true
		} else {
			promoTimes = append(promoTimes, promoTime)
			log.Printf("drill: round %d: leader killed, follower promoted in %v", round, promoTime.Round(time.Millisecond))
		}
		writeTarget.Store(fnode.ts.URL)
		time.Sleep(roundDur / 2)
		close(stop)
		wg.Wait()
		if failed {
			break
		}
		f.Close() // promoted: replication is quiesced, the node is a leader
		leader = fnode
	}

	ok, fail := readsOK.Load(), readsFailed.Load()
	avail := 1.0
	if ok+fail > 0 {
		avail = float64(ok) / float64(ok+fail)
	}
	sort.Slice(promoTimes, func(i, j int) bool { return promoTimes[i] < promoTimes[j] })
	fmt.Printf("\nfailover drill: %d rounds, %d records written, %d reads (%d failed)\n",
		rounds, next.Load()-int64(seedN), ok+fail, fail)
	fmt.Printf("read availability through failovers: %.4f%% (floor %.2f%%)\n", avail*100, minReadAvail*100)
	if len(promoTimes) > 0 {
		fmt.Printf("promotion time: min=%v median=%v max=%v (bound %v)\n",
			promoTimes[0].Round(time.Millisecond),
			promoTimes[len(promoTimes)/2].Round(time.Millisecond),
			promoTimes[len(promoTimes)-1].Round(time.Millisecond), promoteBound)
	}
	for _, p := range promoTimes {
		if p > promoteBound {
			log.Printf("drill: FAIL: promotion took %v, bound %v", p, promoteBound)
			failed = true
		}
	}
	if avail < minReadAvail {
		log.Printf("drill: FAIL: read availability %.4f%% under floor %.2f%%", avail*100, minReadAvail*100)
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Println("failover drill passed")
	return 0
}
