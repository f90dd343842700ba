package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"gbkmv"
)

// overlapCorpus builds a deterministic n-record corpus with overlapping token
// sets.
func overlapCorpus(n int) [][]string {
	recs := make([][]string, n)
	for i := range recs {
		recs[i] = []string{
			fmt.Sprintf("tok%d", i%17),
			fmt.Sprintf("tok%d", (i*3)%29),
			fmt.Sprintf("tok%d", (i*7)%41),
			fmt.Sprintf("id%d", i),
		}
	}
	return recs
}

func jsonBody(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// searchResults collects the ids of a few fixed searches and top-k queries —
// the equality probe of a restart.
func searchResults(t *testing.T, ts *httptest.Server, name string) []any {
	t.Helper()
	var out []any
	for _, q := range []string{
		`{"query": ["tok1", "tok3", "tok7"], "threshold": 0.3, "limit": 50}`,
		`{"query": ["tok2", "tok6"], "threshold": 0.5, "limit": 50}`,
		`{"query": ["tok0", "id0"], "threshold": 0.2, "limit": 50}`,
	} {
		code, m := doJSON(t, ts, "POST", "/collections/"+name+"/search", q)
		if code != http.StatusOK {
			t.Fatalf("search: %d %v", code, m)
		}
		out = append(out, m["results"], m["total"])
	}
	code, m := doJSON(t, ts, "POST", "/collections/"+name+"/topk", `{"query": ["tok1", "tok3"], "k": 10}`)
	if code != http.StatusOK {
		t.Fatalf("topk: %d %v", code, m)
	}
	return append(out, m["results"])
}

// TestConcurrentInsertSearchSnapshot is the -race exercise: inserts, searches
// and snapshots hammer one collection concurrently. The invariants are
// freedom from data races and that every acknowledged insert is present at
// the end, and after a reload.
func TestConcurrentInsertSearchSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	body := map[string]any{"records": overlapCorpus(50), "options": map[string]any{"budget_units": 100000, "buffer_bits": 64}}
	if code, m := doJSON(t, ts, "PUT", "/collections/c", jsonBody(t, body)); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	c, err := store.Get("c")
	if err != nil {
		t.Fatal(err)
	}

	const inserters, batches, perBatch = 4, 15, 4
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				recs := make([][]string, perBatch)
				for j := range recs {
					recs[j] = []string{fmt.Sprintf("tok%d", (w+i+j)%17), fmt.Sprintf("w%d-b%d-r%d", w, i, j)}
				}
				if _, err := c.Insert(recs, fmt.Sprintf("race-%d-%d", w, i)); err != nil {
					errc <- fmt.Errorf("insert: %w", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, _, err := c.SearchRaw([]byte(fmt.Sprintf(`["tok%d", "tok3"]`, i%17)), 0.3, 20, false, nil, nil); err != nil {
					errc <- fmt.Errorf("search: %w", err)
					return
				}
				if _, err := c.TopKRaw([]byte(fmt.Sprintf(`["tok%d"]`, i%29)), 5, false, nil, nil); err != nil {
					errc <- fmt.Errorf("topk: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := store.Snapshot("c"); err != nil {
				errc <- fmt.Errorf("snapshot: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	wantLen := 50 + inserters*batches*perBatch
	if got := c.Stats().NumRecords; got != wantLen {
		t.Fatalf("records after concurrent run = %d, want %d", got, wantLen)
	}
	// Reload: the mix of snapshots and journaled tails reassembles.
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, _ := newServer(t, dir)
	defer store2.Close()
	c2, err := store2.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats().NumRecords; got != wantLen {
		t.Fatalf("records after reload = %d, want %d", got, wantLen)
	}
}

// TestRestartAfterKillAtFullBudget is TestRestartAfterKill in the regime
// where grouping could matter: default options (the 10 % budget is full from
// the first insert), so inserts shrink the threshold by overshoot + slack. The live server applied the
// records request by request; replay applies the whole journal as one batch.
// Both must land on the same τ and the same answers.
func TestRestartAfterKillAtFullBudget(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	// overlapCorpus' four-token records leave a sketch of a few hundred values
	// behind a tie run; give every record a dozen skewed draws from a
	// 20 000-token vocabulary (tie runs well under the slack) so the
	// threshold moves and its value depends on where each shrink happened.
	corpus := overlapCorpus(3400)
	x := uint32(1)
	for i := range corpus {
		for j := 0; j < 12; j++ {
			x = x*1664525 + 1013904223
			u := uint64(x>>12) % 100000
			corpus[i] = append(corpus[i], fmt.Sprintf("w%d", u*u/500000))
		}
	}
	if code, m := doJSON(t, ts, "PUT", "/collections/full",
		jsonBody(t, map[string]any{"records": corpus[:3000],
			// The default 10 % budget; a small pinned buffer, because the cost
			// model's choice for records this short leaves the sketch nothing.
			"options": map[string]any{"buffer_bits": 8}})); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	for i := 3000; i < len(corpus); {
		n := 1 + i%3 // requests of 1-3 records
		if i+n > len(corpus) {
			n = len(corpus) - i
		}
		if code, m := doJSON(t, ts, "POST", "/collections/full/records",
			jsonBody(t, map[string]any{"records": corpus[i : i+n]})); code != http.StatusOK {
			t.Fatalf("insert: %d %v", code, m)
		}
		i += n
	}
	wantStats := doJSONBody(t, ts, "GET", "/collections/full/stats")
	// Budgets of 128 units or more have a non-zero slack.
	if b := wantStats["budget_units"].(float64); b < 128 {
		t.Fatalf("budget_units = %v; fixture too small for a slack", b)
	}
	if n := scrape(t, ts)[`gbkmv_build_threshold_shrinks_total{collection="full"}`]; n < 3 {
		t.Fatalf("%v threshold shrinks; the fixture is not at a full budget", n)
	}
	want := searchResults(t, ts, "full")
	wantEngine := engineBytes(t, store, "full")
	ts.Close() // no store.Close(): simulated kill

	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	gotStats := doJSONBody(t, ts2, "GET", "/collections/full/stats")
	for _, key := range []string{"tau", "used_units", "num_records", "journaled_inserts"} {
		if gotStats[key] != wantStats[key] {
			t.Errorf("%s after kill-restart = %v, want %v", key, gotStats[key], wantStats[key])
		}
	}
	if got := searchResults(t, ts2, "full"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after kill-restart:\n got  %v\n want %v", got, want)
	}
	// Beyond /stats: τ, the arenas and the records.
	if !bytes.Equal(engineBytes(t, store2, "full"), wantEngine) {
		t.Fatal("replayed engine encodes differently from the one that was killed")
	}
}

// engineBytes is the collection's engine in its snapshot encoding.
func engineBytes(t *testing.T, store *Store, name string) []byte {
	t.Helper()
	c, err := store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var buf bytes.Buffer
	if err := gbkmv.SaveEngine(&buf, c.eng); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
