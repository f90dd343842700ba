package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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
	qc := newQueryCache(qcShards, &obs.Counter{}, &obs.Counter{}, &obs.Counter{}) // one entry per shard
	answer := []gbkmv.Scored{{ID: 3, Score: 0.5}, {ID: 1 << 31, Score: 1}}

	k1 := []byte(`["x"]`)
	if _, ok := qc.lookup(1, k1); ok {
		t.Fatal("hit on empty cache")
	}
	qc.put(1, k1, 7, answer)
	if packed, ok := qc.lookup(1, k1); !ok {
		t.Fatal("miss after put")
	} else if got, total := unpackAnswer(nil, packed); total != 7 || !reflect.DeepEqual(got, answer) {
		t.Fatalf("answer came back as %v, total %d", got, total)
	}
	// A generation bump makes the entry dead without any flush.
	if _, ok := qc.lookup(2, k1); ok {
		t.Fatal("stale-generation entry served")
	}
	// Overwriting the dead entry revives the key at the new generation.
	qc.put(2, k1, 1, answer[:1])
	if packed, ok := qc.lookup(2, k1); !ok {
		t.Fatal("miss after generation refresh")
	} else if got, total := unpackAnswer(nil, packed); total != 1 || len(got) != 1 {
		t.Fatalf("refreshed answer came back as %v, total %d", got, total)
	}
	// The key is the query's bytes: another spelling of it is another key.
	if _, ok := qc.lookup(2, []byte(`[ "x"]`)); ok {
		t.Fatal("a respelled query hit the cache")
	}
	// An answer too long to pack within maxKeyBytes is not kept: a hit is at
	// least 9 bytes.
	qc.put(2, []byte(`["big"]`), maxKeyBytes, make([]gbkmv.Scored, maxKeyBytes/9))
	if _, ok := qc.lookup(2, []byte(`["big"]`)); ok {
		t.Fatal("an outsized answer was cached")
	}
	// Answers pack and unpack exactly: a search's ascending ids, a top-k's in
	// any order, ids up to 32 bits, any estimate bits.
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		want := make([]gbkmv.Scored, rng.Intn(60))
		for i := range want {
			want[i] = gbkmv.Scored{ID: rng.Intn(1 << (1 + rng.Intn(32))), Score: rng.Float64()}
		}
		if rng.Intn(2) == 0 {
			slices.SortFunc(want, func(a, b gbkmv.Scored) int { return a.ID - b.ID })
		}
		packed := packAnswer(len(want)+rng.Intn(1000), want)
		if got, _ := unpackAnswer(nil, packed); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%v came back as %v", want, got)
		}
	}
	// A shard evicts its least recently used entry: of three keys in one
	// shard of two entries, the one not looked up since it was put.
	lru := newQueryCache(2*qcShards, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
	var same [][]byte
	for i := 0; len(same) < 3; i++ {
		if k := fmt.Appendf(nil, `["s%d"]`, i); lru.shardFor(k) == lru.shardFor([]byte(`["s0"]`)) {
			same = append(same, k)
		}
	}
	lru.put(1, same[0], 0, nil)
	lru.put(1, same[1], 0, nil)
	lru.lookup(1, same[0])
	lru.put(1, same[2], 0, nil)
	for i, want := range []bool{true, false, true} {
		if _, ok := lru.lookup(1, same[i]); ok != want {
			t.Fatalf("key %d of 3 resident: %v, want %v", i, ok, want)
		}
	}
	// Filling a shard beyond capacity evicts oldest-first.
	evBefore := qc.stats().Evictions
	for i := 0; i < 64; i++ {
		qc.put(2, fmt.Appendf(nil, `["t%d"]`, i), i, answer[:i%3])
	}
	st := qc.stats()
	if st.Evictions == evBefore {
		t.Fatal("no evictions after overfilling")
	}
	if st.Entries > qcShards {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, qcShards)
	}
}

// TestQueryCacheBytes holds the cache's byte counter — kept on put,
// overwrite and evict, never by a scan — to a recount of the resident keys
// and answers, through a fill past capacity, overwrites of live and stale
// entries with longer and shorter answers, and evictions.
func TestQueryCacheBytes(t *testing.T) {
	qc := newQueryCache(4*qcShards, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
	recount := func() int64 {
		var n int64
		for i := range qc.shards {
			sh := &qc.shards[i]
			sh.mu.Lock()
			for _, e := range sh.m {
				n += int64(len(e.key) + len(e.answer))
			}
			sh.mu.Unlock()
		}
		return n
	}
	rng := rand.New(rand.NewSource(1))
	hits := make([]gbkmv.Scored, 40)
	for i := range 2000 {
		key := fmt.Appendf(nil, `["q%d"]`, rng.Intn(120))
		qc.put(uint64(i/300), key, i, hits[:rng.Intn(len(hits))])
		if i%97 == 0 {
			if got, want := qc.bytes.Load(), recount(); got != want {
				t.Fatalf("after %d puts: bytes %d, recount %d", i+1, got, want)
			}
		}
	}
	st := qc.stats()
	if st.Evictions == 0 || st.Entries != 4*qcShards {
		t.Fatalf("the cache was not filled past capacity: %+v", st)
	}
	if got, want := st.Bytes, recount(); got != want || got <= 0 {
		t.Fatalf("bytes %d, recount %d", got, want)
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

// diffNode is one store of TestAnswerCacheDifferential, on its own data
// directory and served through Handler without a listener.
type diffNode struct {
	name  string
	dir   string
	cache int // StoreOptions.QueryCacheEntries: negative disables the cache
	store *Store
	h     http.Handler
	// hits and evictions add up the cache's counters of every incarnation
	// of the collection a reload closed.
	hits, evictions uint64
}

func (n *diffNode) open(t *testing.T) {
	t.Helper()
	s, err := OpenStore(n.dir, StoreOptions{QueryCacheEntries: n.cache, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("%s: %v", n.name, err)
	}
	n.store, n.h = s, Handler(s)
}

func (n *diffNode) coll(t *testing.T) *Collection {
	t.Helper()
	c, err := n.store.Get("c")
	if err != nil {
		t.Fatalf("%s: %v", n.name, err)
	}
	return c
}

// tally adds the collection's cache counters to the node's totals.
func (n *diffNode) tally(t *testing.T) {
	if st := n.coll(t).Stats().QueryCache; st != nil {
		n.hits += st.Hits
		n.evictions += st.Evictions
	}
}

func (n *diffNode) do(method, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	n.h.ServeHTTP(rec, httptest.NewRequest(method, "/collections/c"+path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// ship hands the follower the leader's journal frames it has not applied,
// through ApplyReplicated, as the replication stream does.
func ship(t *testing.T, leader, follower *diffNode) {
	t.Helper()
	gen, _, _ := leader.coll(t).ReplPosition()
	fc := follower.coll(t)
	fgen, off, _ := fc.ReplPosition()
	if fgen != gen {
		t.Fatalf("follower at generation %d, leader at %d", fgen, gen)
	}
	frames, err := os.ReadFile(filepath.Join(leader.dir, "c", fmt.Sprintf("journal-%d.log", gen)))
	if err != nil {
		t.Fatal(err)
	}
	if end, _, err := fc.ApplyReplicated(gen, off, frames[off:]); err != nil || end != int64(len(frames)) {
		t.Fatalf("follower applied to %d of %d: %v", end, len(frames), err)
	}
}

// TestAnswerCacheDifferential runs one seeded schedule against four stores
// that hold the same collection: a leader and a follower with the answer
// cache on, and a leader and a follower with it off. The schedule inserts
// records through the HTTP insert path (the followers apply the leaders'
// frames through ApplyReplicated), snapshots (the followers roll their
// generation), closes and reopens every store, and asks search, top-k and
// batch requests over a small pool of queries, with thresholds, limits, k and
// with_tokens drawn from small sets so that requests repeat. Every response
// must be byte-equal to the uncached leader's. The collection grows past the
// number of hits an answer can pack within maxKeyBytes, so a threshold-0
// search is cached early on and answered uncached later.
func TestAnswerCacheDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { answerCacheDifferential(t, seed) })
	}
}

func answerCacheDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// 420 records answer a threshold-0 search in 3 782 packed bytes; the
	// schedule's inserts take it past maxKeyBytes.
	records := benchCollectionRecords(t, 420)
	var nodes []*diffNode
	for _, name := range []string{"leader-off", "leader-on", "follower-off", "follower-on"} {
		cache := 64
		if strings.HasSuffix(name, "off") {
			cache = -1
		}
		n := &diffNode{name: name, dir: t.TempDir(), cache: cache}
		n.open(t)
		nodes = append(nodes, n)
	}
	ref, leaders, followers := nodes[0], nodes[:2], nodes[2:]
	build := string(marshalBuildBody(t, records, `{"seed":7}`))
	for i, l := range leaders {
		if code, body := l.do("PUT", "", build); code != http.StatusOK {
			t.Fatalf("seed %d: build %s: %d %s", seed, l.name, code, body)
		}
		replicaFromSnapshot(t, l.dir, followers[i].store, "c", 1)
	}

	quote := func(tokens []string) string {
		b, err := json.Marshal(tokens)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var queries []string
	for i := 0; i < 8; i++ {
		r := records[rng.Intn(len(records))]
		from := rng.Intn(len(r) / 2)
		queries = append(queries, quote(r[from:from+1+rng.Intn(12)]))
	}
	sub := records[rng.Intn(len(records))][:6]
	queries = append(queries,
		quote(append([]string{"fresh-0", "fresh-1"}, sub...)), // tokens that inserts bring in
		quote(append([]string{sub[5], sub[4], sub[3]}, sub[:3]...)),
		`["fresh-2"]`,
		`[]`,
	)
	pick := func() string { return queries[rng.Intn(len(queries))] }
	thresholds := []string{"0", "0.3", "0.6", "1"}

	// send asks every node the same request and holds each answer to the
	// uncached leader's, byte for byte.
	send := func(step int, path, body string) {
		t.Helper()
		wantCode, want := ref.do("POST", path, body)
		for _, n := range nodes[1:] {
			if code, got := n.do("POST", path, body); code != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("seed %d, step %d: %s %s\n%s: %d %.300s\n%s: %d %.300s",
					seed, step, path, body, n.name, code, got, ref.name, wantCode, want)
			}
		}
	}
	reload := func() {
		for _, n := range nodes {
			n.tally(t)
			if err := n.store.Close(); err != nil {
				t.Fatalf("seed %d: close %s: %v", seed, n.name, err)
			}
			n.open(t)
		}
	}

	const steps = 240
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 15: // an insert of one to three records
			var recs []string
			for j := 0; j <= rng.Intn(3); j++ {
				base := records[rng.Intn(len(records))]
				tokens := append([]string{fmt.Sprintf("fresh-%d", rng.Intn(4))}, base[:1+rng.Intn(len(base)-1)]...)
				recs = append(recs, quote(tokens))
			}
			body := `{"records":[` + strings.Join(recs, ",") + `]}`
			wantCode, want := leaders[0].do("POST", "/records", body)
			if code, got := leaders[1].do("POST", "/records", body); wantCode != http.StatusOK || code != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("seed %d, step %d: insert %s: %d %s / %d %s", seed, step, body, wantCode, want, code, got)
			}
			for i, l := range leaders {
				ship(t, l, followers[i])
			}
		case r < 18 || step == steps/2: // a snapshot, and every other time a reload
			for i, l := range leaders {
				if code, body := l.do("POST", "/snapshot", ""); code != http.StatusOK {
					t.Fatalf("seed %d, step %d: snapshot %s: %d %s", seed, step, l.name, code, body)
				}
				gen, _, _ := l.coll(t).ReplPosition()
				if err := followers[i].store.RollGeneration("c", gen); err != nil {
					t.Fatalf("seed %d, step %d: roll %s: %v", seed, step, followers[i].name, err)
				}
			}
			if step == steps/2 || rng.Intn(2) == 0 {
				reload()
			}
		case r < 55:
			send(step, "/search", fmt.Sprintf(`{"query":%s,"threshold":%s,"limit":%d,"with_tokens":%v}`,
				pick(), thresholds[rng.Intn(len(thresholds))], 5*rng.Intn(2), rng.Intn(2) == 0))
		case r < 80:
			send(step, "/topk", fmt.Sprintf(`{"query":%s,"k":%d,"with_tokens":%v}`,
				pick(), []int{1, 10}[rng.Intn(2)], rng.Intn(2) == 0))
		default:
			batch := make([]string, 2+rng.Intn(4))
			for i := range batch {
				batch[i] = pick()
			}
			qs := strings.Join(batch, ",")
			if rng.Intn(2) == 0 {
				send(step, "/search:batch", fmt.Sprintf(`{"queries":[%s],"threshold":%s,"limit":%d,"with_tokens":%v}`,
					qs, thresholds[rng.Intn(len(thresholds))], 5*rng.Intn(2), rng.Intn(2) == 0))
			} else {
				send(step, "/topk:batch", fmt.Sprintf(`{"queries":[%s],"k":%d,"with_tokens":%v}`,
					qs, []int{1, 10}[rng.Intn(2)], rng.Intn(2) == 0))
			}
		}
	}
	for _, n := range nodes {
		n.tally(t)
		if err := n.store.Close(); err != nil {
			t.Fatalf("seed %d: close %s: %v", seed, n.name, err)
		}
	}
	// The schedule reached both of the cache's outcomes besides a miss.
	for _, n := range []*diffNode{nodes[1], nodes[3]} {
		if n.hits == 0 || n.evictions == 0 {
			t.Fatalf("seed %d: %s served %d hits and evicted %d entries: the schedule exercised too little",
				seed, n.name, n.hits, n.evictions)
		}
	}
}
