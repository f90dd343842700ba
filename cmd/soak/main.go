// Command soak runs the two in-process drills CI smokes on every push. Each
// starts its own gbkmvd nodes (real stores and journals behind httptest
// servers) on a synthetic corpus, drives live traffic at them, breaks
// something, and exits non-zero unless the service recovers the way
// DESIGN.md says it does:
//
//	soak -scrub -duration 6s
//	soak -failover-drill -drill-rounds 1 -duration 6s -promote-bound 60s
//
// Throughput and latency are the benchmark's business (bash bench/run.sh),
// not this command's.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

const (
	// The collection every drill builds and drives, and the containment
	// threshold its searches ask for.
	drillCollection = "soak"
	drillThreshold  = 0.5
)

func main() {
	var (
		scrubDrill    = flag.Bool("scrub", false, "run the scrub drill (bit-flips a committed snapshot under live reads, requires detection, quarantine, self-repair and unbroken read availability)")
		failoverDrill = flag.Bool("failover-drill", false, "run the failover drill (kills leaders, measures promotion time and read availability)")
		duration      = flag.Duration("duration", 30*time.Second, "length of the scrub drill, or of one failover round")
		drillRounds   = flag.Int("drill-rounds", 3, "failover drill: rounds (each kills a leader and promotes its follower)")
		promoteBound  = flag.Duration("promote-bound", 30*time.Second, "failover drill: fail if any promotion takes longer than this")
		minReadAvail  = flag.Float64("min-read-avail", 0.99, "failover drill: fail if read availability lands under this fraction")
	)
	flag.Parse()
	switch {
	case *scrubDrill:
		os.Exit(runScrubDrill(*duration))
	case *failoverDrill:
		os.Exit(runFailoverDrill(*drillRounds, *duration, *promoteBound, *minReadAvail))
	}
	flag.Usage()
	os.Exit(2)
}

func post(client *http.Client, method, url string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return nil
}

func buildCollection(client *http.Client, base string, records [][]string) error {
	return post(client, http.MethodPut, base, map[string]any{"records": records})
}

func doInsert(client *http.Client, base string, tokens []string) error {
	return post(client, http.MethodPost, base+"/records", map[string]any{"records": [][]string{tokens}})
}

// sampleQuery draws a prefix of an already-visible record, so some queries
// repeat (cache hits) and some contain fresh inserts (cache misses).
func sampleQuery(records [][]string, inserted *atomic.Int64, rng *rand.Rand) []string {
	hi := int(inserted.Load())
	tokens := records[rng.Intn(hi)]
	n := 1 + rng.Intn(len(tokens))
	return tokens[:n]
}

func doSearch(client *http.Client, base string, records [][]string, inserted *atomic.Int64, rng *rand.Rand) error {
	return post(client, http.MethodPost, base+"/search", map[string]any{
		"query": sampleQuery(records, inserted, rng), "threshold": drillThreshold, "limit": 10})
}
