package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape fetches /metrics and parses the Prometheus text exposition into
// series name{sorted labels} → value, verifying the format as it goes: every
// non-comment line must be `name{labels} value` or `name value`, every series
// must belong to a family announced by # HELP and # TYPE, and values must
// parse as floats.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	announced := make(map[string]bool) // families with HELP+TYPE seen
	helped := make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			helped[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if !helped[f[2]] {
				t.Fatalf("line %d: TYPE before HELP for %s", ln+1, f[2])
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, f[3])
			}
			announced[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
		}
		// A histogram's _bucket/_sum/_count series belong to the base family.
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && announced[b] {
				base = b
				break
			}
		}
		if !announced[base] {
			t.Fatalf("line %d: series %s has no # HELP/# TYPE", ln+1, name)
		}
		if _, dup := series[key]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, key)
		}
		series[key] = v
	}
	return series
}

// checkHistogramConsistency verifies, for every histogram family present,
// that bucket counts are cumulative (non-decreasing in le order), that the
// +Inf bucket equals _count, and that a zero _count implies a zero _sum.
func checkHistogramConsistency(t *testing.T, series map[string]float64) {
	t.Helper()
	type hkey struct{ name, labels string } // labels without le
	buckets := make(map[hkey][]struct {
		le  float64
		val float64
	})
	for key, v := range series {
		name, labels, ok := strings.Cut(key, "{")
		if !ok || !strings.HasSuffix(name, "_bucket") {
			continue
		}
		labels = strings.TrimSuffix(labels, "}")
		var le float64
		var rest []string
		found := false
		for _, kv := range strings.Split(labels, ",") {
			if val, isLe := strings.CutPrefix(kv, `le="`); isLe {
				found = true
				val = strings.TrimSuffix(val, `"`)
				if val == "+Inf" {
					le = math.Inf(1)
				} else {
					var err error
					if le, err = strconv.ParseFloat(val, 64); err != nil {
						t.Fatalf("%s: bad le %q: %v", key, val, err)
					}
				}
				continue
			}
			rest = append(rest, kv)
		}
		if !found {
			t.Fatalf("%s: bucket without le", key)
		}
		k := hkey{strings.TrimSuffix(name, "_bucket"), strings.Join(rest, ",")}
		buckets[k] = append(buckets[k], struct{ le, val float64 }{le, v})
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for k, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		if !math.IsInf(bs[len(bs)-1].le, 1) {
			t.Fatalf("%v: no +Inf bucket", k)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].val < bs[i-1].val {
				t.Fatalf("%v: bucket counts not cumulative at le=%g: %g < %g",
					k, bs[i].le, bs[i].val, bs[i-1].val)
			}
		}
		countKey := k.name + "_count{" + k.labels + "}"
		count, ok := series[countKey]
		if !ok {
			t.Fatalf("%v: missing %s", k, countKey)
		}
		if inf := bs[len(bs)-1].val; inf != count {
			t.Fatalf("%v: +Inf bucket %g != _count %g", k, inf, count)
		}
		sumKey := k.name + "_sum{" + k.labels + "}"
		if sum, ok := series[sumKey]; !ok {
			t.Fatalf("%v: missing %s", k, sumKey)
		} else if count == 0 && sum != 0 {
			t.Fatalf("%v: zero count with sum %g", k, sum)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	store, ts := newServer(t, "")
	buildRestaurants(t, ts, "m")
	search := func() {
		if code, m := doJSON(t, ts, "POST", "/collections/m/search",
			`{"query": ["five", "guys"], "threshold": 0.5}`); code != http.StatusOK {
			t.Fatalf("search: %d %v", code, m)
		}
	}
	search() // cold: cache miss, one engine search
	search() // hot: cache hit, answered without a search
	doJSON(t, ts, "POST", "/collections/m/records", `{"records": [["shake", "shack"]]}`)
	doJSON(t, ts, "POST", "/collections/m/search:batch",
		`{"queries": [["five"], ["burgers"]], "threshold": 0.1}`)

	series := scrape(t, ts)
	checkHistogramConsistency(t, series)

	expect := map[string]float64{
		`gbkmv_http_requests_total{endpoint="POST /collections/{name}/search",collection="m",code="2xx"}`:       2,
		`gbkmv_http_requests_total{endpoint="POST /collections/{name}/search:batch",collection="m",code="2xx"}`: 1,
		`gbkmv_query_cache_hits_total{collection="m"}`:                                                          1,
		`gbkmv_query_cache_misses_total{collection="m"}`:                                                        3, // engine searches: cold search + 2 distinct batch queries
		`gbkmv_wal_appended_frames_total{collection="m"}`:                                                       0, // memory-only store: no journal
		`gbkmv_collection_records{collection="m"}`:                                                              4,
		`gbkmv_collection_query_generation{collection="m"}`:                                                     1,
		`gbkmv_batch_queries_count{collection="m"}`:                                                             1,
		`gbkmv_batch_queries_sum{collection="m"}`:                                                               2,
		// One successful build: one observation per stage.
		`gbkmv_build_stage_seconds_count{stage="decode"}`:   1,
		`gbkmv_build_stage_seconds_count{stage="sketch"}`:   1,
		`gbkmv_build_stage_seconds_count{stage="snapshot"}`: 1,
	}
	for key, want := range expect {
		if got, ok := series[key]; !ok {
			t.Errorf("missing series %s", key)
		} else if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	// Sketch state gauges mirror /stats: τ, and used ÷ budget units.
	_, st := doJSON(t, ts, "GET", "/collections/m/stats", "")
	if got := series[`gbkmv_sketch_tau{collection="m"}`]; got != st["tau"] || got <= 0 {
		t.Errorf("gbkmv_sketch_tau = %g, /stats tau %v", got, st["tau"])
	}
	if got, want := series[`gbkmv_sketch_budget_utilisation{collection="m"}`],
		st["used_units"].(float64)/st["budget_units"].(float64); got != want || got <= 0 {
		t.Errorf("gbkmv_sketch_budget_utilisation = %g, /stats used/budget %g", got, want)
	}
	// Where the bytes are: one gauge a part, each mirroring its /stats field —
	// the sketch, the records and search structures around it, and the
	// vocabulary beside them.
	for part, field := range map[string]string{"sketch": "size_bytes", "records": "record_bytes", "index": "index_bytes", "vocabulary": "vocab_bytes"} {
		got := series[`gbkmv_collection_resident_bytes{collection="m",part="`+part+`"}`]
		if want, _ := st[field].(float64); got != want || got <= 0 {
			t.Errorf("gbkmv_collection_resident_bytes{part=%q} = %g, /stats %s %v", part, got, field, st[field])
		}
	}
	// The answer cache's part is /stats query_cache.bytes: the three cached
	// answers and their keys.
	qcs, _ := st["query_cache"].(map[string]any)
	if got, want := series[`gbkmv_collection_resident_bytes{collection="m",part="query_cache"}`], qcs["bytes"]; got != want || got <= 0 {
		t.Errorf("gbkmv_collection_resident_bytes{part=\"query_cache\"} = %g, /stats query_cache.bytes %v", got, want)
	}
	c, err := store.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := series[`gbkmv_collection_resident_bytes{collection="m",part="vocabulary"}`], float64(c.voc.SizeBytes()); got != want {
		t.Errorf("gbkmv_collection_resident_bytes{part=\"vocabulary\"} = %g, the vocabulary's SizeBytes %g", got, want)
	}
	// Per-search work counters count engine searches, not requests: the cold
	// search and the 2 batch slots ran one each, the cache hit none.
	// Candidates flowed through the histogram and the totals agree with it.
	candSum := series[`gbkmv_search_candidates_sum{collection="m"}`]
	candTotal := series[`gbkmv_search_candidates_total{collection="m"}`]
	if candSum != candTotal {
		t.Errorf("candidates histogram sum %g != counter total %g", candSum, candTotal)
	}
	if series[`gbkmv_search_candidates_count{collection="m"}`] != 3 {
		t.Errorf("candidate observations = %g, want 3",
			series[`gbkmv_search_candidates_count{collection="m"}`])
	}
	// Runtime metrics are present.
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "process_uptime_seconds"} {
		if _, ok := series[name]; !ok {
			t.Errorf("missing runtime series %s", name)
		}
	}

	// Monotonicity: counters never decrease between scrapes.
	search()
	series2 := scrape(t, ts)
	for key, v := range series {
		if !strings.Contains(key, "_total") {
			continue
		}
		if v2, ok := series2[key]; !ok {
			t.Errorf("series %s vanished", key)
		} else if v2 < v {
			t.Errorf("counter %s went backwards: %g -> %g", key, v, v2)
		}
	}
}

func TestMetricsPersistentWAL(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir)
	buildRestaurants(t, ts, "w")
	for i := 0; i < 3; i++ {
		if code, m := doJSON(t, ts, "POST", "/collections/w/records",
			fmt.Sprintf(`{"records": [["tok%d", "burgers"]]}`, i)); code != http.StatusOK {
			t.Fatalf("insert: %d %v", code, m)
		}
	}
	series := scrape(t, ts)
	if got := series[`gbkmv_wal_appended_frames_total{collection="w"}`]; got != 3 {
		t.Errorf("wal frames = %g, want 3", got)
	}
	if got := series[`gbkmv_wal_appended_bytes_total{collection="w"}`]; got <= 0 {
		t.Errorf("wal bytes = %g, want > 0", got)
	}
	if got := series[`gbkmv_wal_fsync_seconds_count{collection="w"}`]; got < 1 || got > 3 {
		t.Errorf("fsync count = %g, want 1..3 (group commit)", got)
	}
	if got := series[`gbkmv_wal_synced_offset_bytes{collection="w"}`]; got <= 0 {
		t.Errorf("synced offset = %g, want > 0", got)
	}
	if series[`gbkmv_wal_offset_bytes{collection="w"}`] != series[`gbkmv_wal_synced_offset_bytes{collection="w"}`] {
		t.Errorf("quiesced journal: offset %g != synced %g",
			series[`gbkmv_wal_offset_bytes{collection="w"}`],
			series[`gbkmv_wal_synced_offset_bytes{collection="w"}`])
	}

	// Stats surfaces the same durability state.
	_, st := doJSON(t, ts, "GET", "/collections/w/stats", "")
	if st["wal_offset_bytes"] != series[`gbkmv_wal_offset_bytes{collection="w"}`] {
		t.Errorf("stats wal_offset_bytes %v != metrics %g",
			st["wal_offset_bytes"], series[`gbkmv_wal_offset_bytes{collection="w"}`])
	}
	if st["open_group_depth"] != float64(0) {
		t.Errorf("open_group_depth = %v, want 0", st["open_group_depth"])
	}
	if st["query_generation"] != float64(3) {
		t.Errorf("query_generation = %v, want 3", st["query_generation"])
	}

	// Deleting the collection ends its series.
	doJSON(t, ts, "DELETE", "/collections/w", "")
	after := scrape(t, ts)
	for key := range after {
		if strings.Contains(key, `collection="w"`) &&
			!strings.Contains(key, "gbkmv_http_requests_total") &&
			!strings.Contains(key, "gbkmv_http_request_seconds") {
			t.Errorf("series survived delete: %s", key)
		}
	}
}

// TestSnapshotPauseCountsSnapshots: inserts wait for the encode of the whole
// index, so the pause histogram takes one observation a snapshot.
func TestSnapshotPauseCountsSnapshots(t *testing.T) {
	_, ts := newServer(t, t.TempDir())
	buildRestaurants(t, ts, "w")
	const pauses = `gbkmv_snapshot_pause_seconds_count{collection="w"}`
	built := scrape(t, ts)[pauses] // the build's own snapshot
	for i := 1; i <= 2; i++ {
		if code, m := doJSON(t, ts, "POST", "/collections/w/snapshot", ""); code != http.StatusOK {
			t.Fatalf("snapshot: %d %v", code, m)
		}
		if got := scrape(t, ts)[pauses]; got != built+float64(i) {
			t.Fatalf("%g pauses observed after %d snapshots on top of %g", got, i, built)
		}
	}
	if built != 1 {
		t.Errorf("the build's snapshot booked %g pauses, want 1", built)
	}
}

// TestMetricsUnderConcurrentLoad hammers inserts, searches and scrapes
// concurrently (meaningful under -race) and then checks the exposition is
// still internally consistent.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	_, ts := newServer(t, t.TempDir())
	buildRestaurants(t, ts, "c")
	const workers, iters = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				doJSON(t, ts, "POST", "/collections/c/search",
					fmt.Sprintf(`{"query": ["five", "tok%d"], "threshold": 0.1}`, i%5))
				if i%5 == 0 {
					doJSON(t, ts, "POST", "/collections/c/records",
						fmt.Sprintf(`{"records": [["w%d", "i%d"]]}`, w, i))
				}
				if i%7 == 0 {
					scrape(t, ts)
				}
			}
		}(w)
	}
	wg.Wait()
	series := scrape(t, ts)
	checkHistogramConsistency(t, series)
	searches := series[`gbkmv_http_requests_total{endpoint="POST /collections/{name}/search",collection="c",code="2xx"}`]
	if want := float64(workers * iters); searches != want {
		t.Errorf("search requests = %g, want %g", searches, want)
	}
	hits := series[`gbkmv_query_cache_hits_total{collection="c"}`]
	misses := series[`gbkmv_query_cache_misses_total{collection="c"}`]
	if hits+misses != float64(workers*iters) {
		t.Errorf("cache hits %g + misses %g != %d searches", hits, misses, workers*iters)
	}
}

func TestRequestIDEcho(t *testing.T) {
	_, ts := newServer(t, "")
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-Id")
	if generated == "" {
		t.Fatal("no X-Request-Id generated")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-supplied-7")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-supplied-7" {
		t.Fatalf("X-Request-Id = %q, want the client's id echoed", got)
	}
}

func TestReadyz(t *testing.T) {
	_, ts := newServer(t, "")
	code, m := doJSON(t, ts, "GET", "/readyz", "")
	if code != http.StatusOK || m["status"] != "ready" {
		t.Fatalf("readyz: %d %v", code, m)
	}
	// A store mid-load reports 503.
	s2 := &Store{cols: map[string]*Collection{}, logf: t.Logf, metrics: newMetrics()}
	ts2 := httptest.NewServer(Handler(s2))
	defer ts2.Close()
	resp, err := ts2.Client().Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("not-ready store: %d, want 503", resp.StatusCode)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	serve := func(o StoreOptions) *httptest.Server {
		o.Logf = logf
		store, err := OpenStore("", o)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(Handler(store))
		t.Cleanup(ts.Close)
		buildRestaurants(t, ts, "slow")
		return ts
	}

	// Threshold disabled: no slow-query lines.
	doJSON(t, serve(StoreOptions{}), "POST", "/collections/slow/search", `{"query": ["five"], "threshold": 0.5}`)
	mu.Lock()
	for _, l := range lines {
		if strings.Contains(l, "slow-query") {
			t.Fatalf("slow-query logged while disabled: %q", l)
		}
	}
	mu.Unlock()

	ts := serve(StoreOptions{SlowQueryThreshold: time.Nanosecond}) // everything is slow now
	doJSON(t, ts, "POST", "/collections/slow/search", `{"query": ["five", "guys"], "threshold": 0.5}`)
	// Non-query endpoints never hit the slow log, however slow.
	doJSON(t, ts, "GET", "/collections/slow/stats", "")

	mu.Lock()
	defer mu.Unlock()
	var slow []string
	for _, l := range lines {
		if strings.Contains(l, "slow-query") {
			slow = append(slow, l)
		}
	}
	if len(slow) != 1 {
		t.Fatalf("slow-query lines = %d (%q), want 1", len(slow), slow)
	}
	line := slow[0]
	for _, want := range []string{
		"trace_id=", `endpoint="POST /collections/{name}/search"`, "collection=slow",
		"tokens=2", "candidates=", "cache=miss", "status=200", "duration=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q: %s", want, line)
		}
	}
}

// TestStartupLineReportsLoadStages: the line a restart logs per collection
// names what the load spent its time on, the way the build line does — the
// files verified and read, the sketch derived from them, the journal
// replayed on top.
func TestStartupLineReportsLoadStages(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	buildRestaurants(t, ts, "rest")
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["shake", "shack"]]}`)
	ts.Close()
	store.Close()

	var mu sync.Mutex
	var lines []string
	store, err := NewStore(dir, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, `loaded collection "rest"`) {
			for _, want := range []string{"engine gbkmv", "4 records", "replayed from journal", "verify + read ", "derive ", "replay "} {
				if !strings.Contains(l, want) {
					t.Errorf("startup line %q does not report %q", l, want)
				}
			}
			return
		}
	}
	t.Fatalf("no startup line for the collection: %q", lines)
}
