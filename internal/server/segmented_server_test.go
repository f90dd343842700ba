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

// openSegServer is newServer with an explicit default segment count — the
// handler stack of a gbkmvd started with -segments.
func openSegServer(t *testing.T, dir string, segments int) (*Store, *httptest.Server) {
	t.Helper()
	store, err := OpenStore(dir, StoreOptions{Logf: t.Logf, Segments: segments})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(store))
	t.Cleanup(ts.Close)
	return store, ts
}

// segCorpus builds a deterministic ~nRecords corpus with overlapping token
// sets, big enough that every segment of a small shard count is populated.
func segCorpus(n int) [][]string {
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

func buildSegmented(t *testing.T, ts *httptest.Server, name string, records [][]string, segments int) {
	t.Helper()
	body := map[string]any{
		"records": records,
		"options": map[string]any{"budget_units": 100000, "buffer_bits": 64, "segments": segments},
	}
	code, m := doJSON(t, ts, "PUT", "/collections/"+name, jsonBody(t, body))
	if code != http.StatusOK {
		t.Fatalf("build %s: %d %v", name, code, m)
	}
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
// the equality probe for migration and replication tests.
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

// segmentsBlock pulls the segments object out of /stats; nil when absent.
func segmentsBlock(t *testing.T, ts *httptest.Server, name string) map[string]any {
	t.Helper()
	code, m := doJSON(t, ts, "GET", "/collections/"+name+"/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, m)
	}
	seg, _ := m["segments"].(map[string]any)
	return seg
}

// TestSegmentedBuildStatsInsertSearch drives the segmented path end to end
// through the HTTP API: explicit options.segments builds a sharded
// collection, /stats reports the layout, inserts land and are searchable.
func TestSegmentedBuildStatsInsertSearch(t *testing.T) {
	_, ts := newServer(t, "")
	records := segCorpus(60)
	buildSegmented(t, ts, "s", records, 4)

	seg := segmentsBlock(t, ts, "s")
	if seg == nil {
		t.Fatalf("stats has no segments block for a segmented collection")
	}
	if got := seg["count"].(float64); got != 4 {
		t.Fatalf("segments.count = %v, want 4", got)
	}
	recs := seg["records"].([]any)
	total := 0.0
	for _, r := range recs {
		total += r.(float64)
	}
	if total != 60 {
		t.Fatalf("segment records sum to %v, want 60", total)
	}
	if skew := seg["skew"].(float64); skew < 1 {
		t.Fatalf("skew = %v, want >= 1 with every segment populated", skew)
	}

	// Unsegmented twin over the same corpus: the gbkmv engine's generous
	// budget makes every estimate exact, so results must match bit for bit.
	body := map[string]any{
		"records": records,
		"options": map[string]any{"budget_units": 100000, "buffer_bits": 64},
	}
	if code, m := doJSON(t, ts, "PUT", "/collections/bare", jsonBody(t, body)); code != http.StatusOK {
		t.Fatalf("bare build: %d %v", code, m)
	}
	if bare := segmentsBlock(t, ts, "bare"); bare != nil {
		t.Fatalf("unsegmented collection reports a segments block: %v", bare)
	}
	want := searchResults(t, ts, "bare")
	if got := searchResults(t, ts, "s"); !reflect.DeepEqual(got, want) {
		t.Fatalf("segmented results diverge from unsegmented:\n got %v\nwant %v", got, want)
	}

	// Inserts route to segments; both collections stay in lockstep.
	extra := `{"records": [["tok1", "tok3", "fresh1"], ["tok2", "fresh2"], ["tok0", "tok6", "fresh3"]]}`
	for _, name := range []string{"s", "bare"} {
		if code, m := doJSON(t, ts, "POST", "/collections/"+name+"/records", extra); code != http.StatusOK {
			t.Fatalf("insert into %s: %d %v", name, code, m)
		}
	}
	want = searchResults(t, ts, "bare")
	if got := searchResults(t, ts, "s"); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-insert results diverge:\n got %v\nwant %v", got, want)
	}
	seg = segmentsBlock(t, ts, "s")
	recs = seg["records"].([]any)
	total = 0
	for _, r := range recs {
		total += r.(float64)
	}
	if total != 63 {
		t.Fatalf("segment records sum to %v after insert, want 63", total)
	}

	// Negative segment counts are a client error, not a panic.
	if code, _ := doJSON(t, ts, "PUT", "/collections/neg",
		`{"records": [["a"]], "options": {"segments": -1}}`); code != http.StatusBadRequest {
		t.Fatalf("segments=-1 accepted: %d", code)
	}
}

// TestSegmentedMigrationRoundTrip: a snapshot keeps the layout it was written
// with, whatever default the store that opens it runs under. A bare snapshot
// with a journaled tail (what a store without a segment default writes: a
// promoted follower, a test) reopened under Segments: 4 loads, replays and
// answers as the bare engine it is, and stays bare through its next
// snapshot; a collection built segmented loads segmented under a store with
// no segment default.
func TestSegmentedMigrationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	records := segCorpus(40)

	store, ts := newServer(t, dir)
	body := map[string]any{
		"records": records,
		"options": map[string]any{"budget_units": 100000, "buffer_bits": 64},
	}
	if code, m := doJSON(t, ts, "PUT", "/collections/m", jsonBody(t, body)); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	// Journaled tail on top of the snapshot, so the reopen also replays WAL.
	if code, m := doJSON(t, ts, "POST", "/collections/m/records",
		`{"records": [["tok1", "legacy1"], ["tok2", "tok3", "legacy2"]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, m)
	}
	if seg := segmentsBlock(t, ts, "m"); seg != nil {
		t.Fatalf("single-index collection reports segments: %v", seg)
	}
	want := searchResults(t, ts, "m")
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a segmented default: the bare snapshot is served as it is.
	store2, ts2 := openSegServer(t, dir, 4)
	if seg := segmentsBlock(t, ts2, "m"); seg != nil {
		t.Fatalf("bare snapshot loaded under Segments: 4 reports segments: %v", seg)
	}
	if got := searchResults(t, ts2, "m"); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopening under Segments: 4 changed results:\n got %v\nwant %v", got, want)
	}
	// More inserts, a snapshot, and a collection built under the default.
	if code, m := doJSON(t, ts2, "POST", "/collections/m/records",
		`{"records": [["tok5", "reopened1"]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, m)
	}
	if code, m := doJSON(t, ts2, "POST", "/collections/m/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, m)
	}
	if code, m := doJSON(t, ts2, "PUT", "/collections/s", jsonBody(t, body)); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	want2, wantSeg := searchResults(t, ts2, "m"), searchResults(t, ts2, "s")
	ts2.Close()
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	// Under a store with no segment default (a follower, a downgrade) each
	// loads as it was written: "m" bare, "s" at the four segments it was
	// built with.
	_, ts3 := newServer(t, dir)
	if seg := segmentsBlock(t, ts3, "m"); seg != nil {
		t.Fatalf("bare snapshot reports segments after its second snapshot: %v", seg)
	}
	if got := searchResults(t, ts3, "m"); !reflect.DeepEqual(got, want2) {
		t.Fatalf("bare snapshot round-trip changed results:\n got %v\nwant %v", got, want2)
	}
	if seg := segmentsBlock(t, ts3, "s"); seg == nil || seg["count"].(float64) != 4 {
		t.Fatalf("segmented snapshot loaded under default store as %v, want count 4", seg)
	}
	if got := searchResults(t, ts3, "s"); !reflect.DeepEqual(got, wantSeg) {
		t.Fatalf("segmented snapshot round-trip changed results:\n got %v\nwant %v", got, wantSeg)
	}
}

// TestSegmentedConcurrentInsertSearchSnapshot is the -race exercise: inserts,
// searches and snapshots hammer one segmented collection concurrently. The
// invariants are freedom from data races and that every acknowledged insert
// is present at the end.
func TestSegmentedConcurrentInsertSearchSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, ts := openSegServer(t, dir, 4)
	buildSegmented(t, ts, "c", segCorpus(50), 4)
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
				if _, err := c.Insert(recs, fmt.Sprintf("seg-race-%d-%d", w, i)); err != nil {
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
	seg := segmentsBlock(t, ts, "c")
	recs := seg["records"].([]any)
	total := 0.0
	for _, r := range recs {
		total += r.(float64)
	}
	if int(total) != wantLen {
		t.Fatalf("segment records sum to %v, want %d", total, wantLen)
	}

	// Reload: the mix of snapshots and journaled tails reassembles.
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, ts2 := openSegServer(t, dir, 4)
	defer store2.Close()
	c2, err := store2.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Stats().NumRecords; got != wantLen {
		t.Fatalf("records after reload = %d, want %d", got, wantLen)
	}
	if seg := segmentsBlock(t, ts2, "c"); seg == nil || seg["count"].(float64) != 4 {
		t.Fatalf("reloaded segments = %v, want count 4", seg)
	}
}

// TestSegmentedRestartAfterKillAtFullBudget is TestRestartAfterKill in the
// regime where grouping could matter: two segments at default options (the
// 10 % budget is full from the first insert), so inserts shrink each
// segment's threshold by overshoot + slack. The live server applied the
// records request by request; replay applies the whole journal as one batch.
// Both must land on the same τ and the same answers.
func TestSegmentedRestartAfterKillAtFullBudget(t *testing.T) {
	dir := t.TempDir()
	store, ts := openSegServer(t, dir, 2)
	// segCorpus' four-token records leave a sketch of a few hundred values
	// behind a tie run; give every record a dozen skewed draws from a
	// 20 000-token vocabulary (tie runs well under the slack) so the
	// threshold moves and its value depends on where each shrink happened.
	corpus := segCorpus(3400)
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
	// Per-segment budgets of 128 units or more have a non-zero slack.
	if b := wantStats["budget_units"].(float64); b < 2*128 {
		t.Fatalf("budget_units = %v; fixture too small for a slack", b)
	}
	if n := scrape(t, ts)[`gbkmv_build_threshold_shrinks_total{collection="full"}`]; n < 3 {
		t.Fatalf("%v threshold shrinks; the fixture is not at a full budget", n)
	}
	want := searchResults(t, ts, "full")
	wantEngine := engineBytes(t, store, "full")
	ts.Close() // no store.Close(): simulated kill

	store2, ts2 := openSegServer(t, dir, 2)
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
	// /stats reports the coarsest segment's τ only; the encoded engine is
	// every segment's τ, arenas and records.
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
