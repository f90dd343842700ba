package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"gbkmv"
	"gbkmv/internal/obs"
)

// collStats fetches /stats for a collection.
func collStats(t *testing.T, c *Collection) QueryCacheStats {
	t.Helper()
	st := c.Stats()
	if st.QueryCache == nil {
		t.Fatal("query cache disabled")
	}
	return *st.QueryCache
}

func TestQueryCacheLRUAndGenerations(t *testing.T) {
	voc := gbkmv.NewVocabulary()
	recs := []gbkmv.Record{voc.Record([]string{"x", "y"})}
	eng, err := gbkmv.Build(recs, gbkmv.Options{BudgetUnits: 100})
	if err != nil {
		t.Fatal(err)
	}
	qc := newQueryCache(qcShards, &obs.Counter{}, &obs.Counter{}, &obs.Counter{}) // one entry per shard
	pq := eng.Prepare(voc.Record([]string{"x"}))

	k1 := []byte(`["x"]`)
	if _, ok := qc.lookup(1, k1); ok {
		t.Fatal("hit on empty cache")
	}
	qc.put(1, k1, pq)
	if _, ok := qc.lookup(1, k1); !ok {
		t.Fatal("miss after put")
	}
	// A generation bump makes the entry dead without any flush.
	if _, ok := qc.lookup(2, k1); ok {
		t.Fatal("stale-generation entry served")
	}
	// Overwriting the dead entry revives the key at the new generation.
	qc.put(2, k1, pq)
	if _, ok := qc.lookup(2, k1); !ok {
		t.Fatal("miss after generation refresh")
	}
	// The key is the query's bytes: another spelling of it is another key.
	if _, ok := qc.lookup(2, []byte(`[ "x"]`)); ok {
		t.Fatal("a respelled query hit the cache")
	}
	// Filling a shard beyond capacity evicts oldest-first.
	evBefore := qc.stats().Evictions
	for i := 0; i < 64; i++ {
		qc.put(2, fmt.Appendf(nil, `["t%d"]`, i), pq)
	}
	st := qc.stats()
	if st.Evictions == evBefore {
		t.Fatal("no evictions after overfilling")
	}
	if st.Entries > qcShards {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, qcShards)
	}
}

// TestQueryCacheServesAndInvalidates is the end-to-end correctness test: a
// cached answer must be served on repeat queries and must never survive an
// insert, a replacement build, a snapshot+reload, or a delete.
func TestQueryCacheServesAndInvalidates(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	buildRestaurants(t, ts, "rest")
	c, err := store.Get("rest")
	if err != nil {
		t.Fatal(err)
	}

	searchFor := func(query string) map[string]any {
		t.Helper()
		code, m := doJSON(t, ts, "POST", "/collections/rest/search",
			`{"query": `+query+`, "threshold": 0.3}`)
		if code != http.StatusOK {
			t.Fatalf("search: %d %v", code, m)
		}
		return m
	}
	search := func() map[string]any { return searchFor(`["shake", "shack", "burgers"]`) }

	// First search misses, second hits, answers identical.
	first := search()
	st0 := collStats(t, c)
	if st0.Misses == 0 || st0.Entries == 0 {
		t.Fatalf("no miss recorded on first search: %+v", st0)
	}
	second := search()
	st1 := collStats(t, c)
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("repeat search did not hit the cache: %+v -> %+v", st0, st1)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache changed the answer:\n %v\n %v", first, second)
	}
	if first["count"] != float64(2) { // records 0 and 2 share "burgers": 1/3 ≥ 0.3
		t.Fatalf("unexpected baseline count: %v", first)
	}
	// The key is the query's bytes, the sketch its token set: a permuted,
	// duplicated-token spelling is a miss with the same answer.
	respelled := searchFor(`["burgers", "shake", "shack", "shake"]`)
	if st2 := collStats(t, c); st2.Hits != st1.Hits || st2.Misses != st1.Misses+1 {
		t.Fatalf("respelled query was not a miss: %+v -> %+v", st1, st2)
	}
	if !reflect.DeepEqual(first, respelled) {
		t.Fatalf("respelling changed the answer:\n %v\n %v", first, respelled)
	}

	// Insert a matching record: the cached pre-insert answer must not
	// survive the generation bump.
	if code, m := doJSON(t, ts, "POST", "/collections/rest/records",
		`{"records": [["shake", "shack", "burgers"]]}`); code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, m)
	}
	after := search()
	if after["count"] != float64(3) {
		t.Fatalf("search after insert served stale cache: %v", after)
	}
	hits := after["hits"].([]any)
	if got := hits[len(hits)-1].(map[string]any); got["id"] != float64(3) || got["estimate"] != float64(1) {
		t.Fatalf("inserted record not scored exactly: %v", got)
	}

	// Snapshot + reload: the reloaded collection answers identically from a
	// fresh cache (and twice, to exercise its own hit path).
	if code, _ := doJSON(t, ts, "POST", "/collections/rest/snapshot", ""); code != http.StatusOK {
		t.Fatal("snapshot failed")
	}
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	ts = ts2
	c, err = store2.Get("rest")
	if err != nil {
		t.Fatal(err)
	}
	reloaded := search()
	if !reflect.DeepEqual(after, reloaded) {
		t.Fatalf("reload changed the answer:\n %v\n %v", after, reloaded)
	}
	if !reflect.DeepEqual(search(), reloaded) {
		t.Fatal("reloaded hit path changed the answer")
	}

	// Replacement build: a new engine under the same name must never see the
	// old collection's entries.
	if code, m := doJSON(t, ts, "PUT", "/collections/rest",
		`{"records": [["totally", "different"]], "options": {"budget_fraction": 1}}`); code != http.StatusOK {
		t.Fatalf("replace: %d %v", code, m)
	}
	if m := search(); m["count"] != float64(0) {
		t.Fatalf("replaced collection served the old cache: %v", m)
	}

	// Delete: the collection (cache included) is gone.
	doJSON(t, ts, "DELETE", "/collections/rest", "")
	if code, _ := doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["x"], "threshold": 0.5}`); code != http.StatusNotFound {
		t.Fatalf("search after delete: %d, want 404", code)
	}
}

// TestQueryCacheDisabled: a negative size turns the cache off — no
// query_cache in stats, searches still correct — and any other size is the
// collections' capacity.
func TestQueryCacheDisabled(t *testing.T) {
	_, ts := newServerWith(t, "", StoreOptions{QueryCacheEntries: -1})
	buildRestaurants(t, ts, "rest")
	if _, m := doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["five", "guys"], "threshold": 0.5}`); m["count"] != float64(2) {
		t.Fatalf("search with cache disabled: %v", m)
	}
	_, m := doJSON(t, ts, "GET", "/collections/rest/stats", "")
	if _, ok := m["query_cache"]; ok {
		t.Fatalf("query_cache reported with caching disabled: %v", m)
	}
	_, ts = newServerWith(t, "", StoreOptions{QueryCacheEntries: 16})
	buildRestaurants(t, ts, "rest")
	doJSON(t, ts, "POST", "/collections/rest/search", `{"query": ["five", "guys"], "threshold": 0.5}`)
	_, m = doJSON(t, ts, "GET", "/collections/rest/stats", "")
	// One query populates one entry, under its verbatim bytes.
	qcm, ok := m["query_cache"].(map[string]any)
	if !ok || qcm["entries"] != float64(1) {
		t.Fatalf("query_cache of a 16-entry store: %v", m)
	}
}

// TestBatchEndpoints pins the batch forms to their sequential references:
// same hits, same counts, input order preserved, duplicates deduped into one
// prepared query, per-query errors isolated to their slot.
func TestBatchEndpoints(t *testing.T) {
	_, ts := newServer(t, "")
	buildRestaurants(t, ts, "rest")

	queries := [][]string{
		{"five", "guys"},
		{"in", "n", "out"},
		{"five", "guys"}, // duplicate of 0: shares its prepared query
		{"burgers", "and", "fries", "nope"},
	}
	qjson, _ := json.Marshal(queries)

	// Sequential reference.
	var want []map[string]any
	for _, q := range queries {
		qj, _ := json.Marshal(q)
		_, m := doJSON(t, ts, "POST", "/collections/rest/search",
			fmt.Sprintf(`{"query": %s, "threshold": 0.4, "with_tokens": true}`, qj))
		want = append(want, m)
	}
	code, bm := doJSON(t, ts, "POST", "/collections/rest/search:batch",
		fmt.Sprintf(`{"queries": %s, "threshold": 0.4, "with_tokens": true}`, qjson))
	if code != http.StatusOK {
		t.Fatalf("batch search: %d %v", code, bm)
	}
	results := bm["results"].([]any)
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("batch slot %d:\n got  %v\n want %v", i, r, want[i])
		}
	}

	// Top-k batch vs sequential.
	want = want[:0]
	for _, q := range queries {
		qj, _ := json.Marshal(q)
		_, m := doJSON(t, ts, "POST", "/collections/rest/topk",
			fmt.Sprintf(`{"query": %s, "k": 2}`, qj))
		want = append(want, m)
	}
	code, bm = doJSON(t, ts, "POST", "/collections/rest/topk:batch",
		fmt.Sprintf(`{"queries": %s, "k": 2}`, qjson))
	if code != http.StatusOK {
		t.Fatalf("batch topk: %d %v", code, bm)
	}
	for i, r := range bm["results"].([]any) {
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("topk batch slot %d:\n got  %v\n want %v", i, r, want[i])
		}
	}

	// A bad query fails its slot, not the batch.
	code, bm = doJSON(t, ts, "POST", "/collections/rest/search:batch",
		`{"queries": [["five"], []], "threshold": 0.5}`)
	if code != http.StatusOK {
		t.Fatalf("batch with one bad slot: %d %v", code, bm)
	}
	results = bm["results"].([]any)
	if _, ok := results[0].(map[string]any)["count"]; !ok {
		t.Errorf("good slot failed: %v", results[0])
	}
	if _, ok := results[1].(map[string]any)["error"]; !ok {
		t.Errorf("empty query slot did not error: %v", results[1])
	}

	// Batch-level validation.
	for body, wantCode := range map[string]int{
		`{"queries": [], "threshold": 0.5}`:    http.StatusBadRequest,
		`{"queries": [["a"]], "threshold": 2}`: http.StatusBadRequest,
		`{"queries": [["a"]], "k": 0}`:         http.StatusBadRequest,
		`{"queries": "nope"}`:                  http.StatusBadRequest,
	} {
		path := "/collections/rest/search:batch"
		if bytes.Contains([]byte(body), []byte(`"k"`)) {
			path = "/collections/rest/topk:batch"
		}
		if code, m := doJSON(t, ts, "POST", path, body); code != wantCode {
			t.Errorf("%s %s: %d (%v), want %d", path, body, code, m, wantCode)
		}
	}
}

// TestBatchMatchesSequentialAcrossEngines runs the batch-vs-sequential
// equality on both of the paper's KMV-family sketches gbkmvd serves: GB-KMV,
// and G-KMV ("buffer_bits": -1, what the gkmv engine is).
func TestBatchMatchesSequentialAcrossEngines(t *testing.T) {
	_, ts := newServer(t, "")
	for engine, bufferBits := range map[string]int{"gbkmv": 0, "gkmv": -1} {
		body := fmt.Sprintf(`{
			"records": [
				["five", "guys", "burgers", "and", "fries"],
				["five", "kitchen", "berkeley"],
				["in", "n", "out", "burgers"]
			],
			"options": {"buffer_bits": %d, "budget_units": 1000}
		}`, bufferBits)
		if code, m := doJSON(t, ts, "PUT", "/collections/"+engine, body); code != http.StatusOK {
			t.Fatalf("build %s: %d %v", engine, code, m)
		}
		queries := [][]string{{"five", "guys"}, {"burgers"}, {"five", "guys"}}
		var want []map[string]any
		for _, q := range queries {
			qj, _ := json.Marshal(q)
			_, m := doJSON(t, ts, "POST", "/collections/"+engine+"/search",
				fmt.Sprintf(`{"query": %s, "threshold": 0.3}`, qj))
			want = append(want, m)
		}
		qjson, _ := json.Marshal(queries)
		_, bm := doJSON(t, ts, "POST", "/collections/"+engine+"/search:batch",
			fmt.Sprintf(`{"queries": %s, "threshold": 0.3}`, qjson))
		for i, r := range bm["results"].([]any) {
			if !reflect.DeepEqual(r, want[i]) {
				t.Errorf("%s slot %d:\n got  %v\n want %v", engine, i, r, want[i])
			}
		}
	}
}

// TestJSONEscaping exercises the hand-written encoder's fallback path:
// tokens with quotes, backslashes, control bytes and multi-byte UTF-8 must
// round-trip through search with_tokens exactly.
func TestJSONEscaping(t *testing.T) {
	_, ts := newServer(t, "")
	tokens := []string{`quo"te`, `back\slash`, "tab\there", "五guys", "plain"}
	tj, _ := json.Marshal(tokens)
	if code, m := doJSON(t, ts, "PUT", "/collections/esc",
		fmt.Sprintf(`{"records": [%s], "options": {"budget_fraction": 1}}`, tj)); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	_, m := doJSON(t, ts, "POST", "/collections/esc/search",
		fmt.Sprintf(`{"query": %s, "threshold": 0.9, "with_tokens": true}`, tj))
	hits, ok := m["hits"].([]any)
	if !ok || len(hits) != 1 {
		t.Fatalf("search: %v", m)
	}
	got := hits[0].(map[string]any)["tokens"].([]any)
	if len(got) != len(tokens) {
		t.Fatalf("tokens = %v", got)
	}
	for i, tok := range tokens {
		if got[i] != tok {
			t.Errorf("token %d = %q, want %q", i, got[i], tok)
		}
	}
}

// TestConcurrentSearchBatchInsert races searches, batch searches, top-k and
// inserts on one collection — the -race CI run is the real assertion; the
// in-test checks are monotonicity (a search never loses the seed record) and
// that every response is well-formed.
func TestConcurrentSearchBatchInsert(t *testing.T) {
	_, ts := newServer(t, t.TempDir())
	buildRestaurants(t, ts, "rest")

	var wg sync.WaitGroup
	errs := make(chan string, 512)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // searchers
			defer wg.Done()
			for i := 0; i < 30; i++ {
				code, m := doJSON(t, ts, "POST", "/collections/rest/search",
					`{"query": ["five", "guys"], "threshold": 0.9}`)
				if code != http.StatusOK || m["count"].(float64) < 1 {
					errs <- fmt.Sprintf("search: %d %v", code, m)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) { // batch searchers + topk
			defer wg.Done()
			for i := 0; i < 15; i++ {
				code, m := doJSON(t, ts, "POST", "/collections/rest/search:batch",
					`{"queries": [["five", "guys"], ["in", "n", "out"], ["five", "guys"]], "threshold": 0.5}`)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("batch: %d %v", code, m)
					return
				}
				if n := len(m["results"].([]any)); n != 3 {
					errs <- fmt.Sprintf("batch results: %d", n)
					return
				}
				if code, m := doJSON(t, ts, "POST", "/collections/rest/topk:batch",
					`{"queries": [["five", "guys"], ["burgers"]], "k": 3}`); code != http.StatusOK {
					errs <- fmt.Sprintf("topk batch: %d %v", code, m)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) { // inserters
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body := fmt.Sprintf(`{"records": [["w%d", "i%d", "burgers"]]}`, w, i)
				if code, m := doJSON(t, ts, "POST", "/collections/rest/records", body); code != http.StatusOK {
					errs <- fmt.Sprintf("insert: %d %v", code, m)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// 3 seed records + 4 workers × 10 inserts.
	if _, m := doJSON(t, ts, "GET", "/collections/rest/stats", ""); m["num_records"] != float64(43) {
		t.Errorf("num_records = %v, want 43", m["num_records"])
	}
}
