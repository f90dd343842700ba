package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// newServer starts an httptest server over a fresh store. dir == "" gives a
// memory-only store.
func newServer(t *testing.T, dir string) (*Store, *httptest.Server) {
	t.Helper()
	return newServerWith(t, dir, StoreOptions{})
}

// newServerWith is newServer over a store opened with o (logging to t).
func newServerWith(t *testing.T, dir string, o StoreOptions) (*Store, *httptest.Server) {
	t.Helper()
	o.Logf = t.Logf
	store, err := OpenStore(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(store))
	t.Cleanup(ts.Close)
	return store, ts
}

// doJSON issues a request with a JSON body and decodes the JSON response.
func doJSON(t *testing.T, ts *httptest.Server, method, path, body string) (int, map[string]any) {
	t.Helper()
	var r *strings.Reader
	if body == "" {
		r = strings.NewReader("")
	} else {
		r = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: non-JSON response: %v", method, path, err)
	}
	return resp.StatusCode, m
}

// restaurants is a tiny corpus with known exact answers: an absolute budget
// with plenty of headroom plus a buffer wide enough for the whole
// build-time vocabulary keeps every estimate exact, even after the dynamic
// inserts some tests perform.
const restaurants = `{
	"records": [
		["five", "guys", "burgers", "and", "fries"],
		["five", "kitchen", "berkeley"],
		["in", "n", "out", "burgers"]
	],
	"options": {"budget_units": 1000, "buffer_bits": 64}
}`

func buildRestaurants(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	if code, m := doJSON(t, ts, "PUT", "/collections/"+name, restaurants); code != http.StatusOK {
		t.Fatalf("build %s: %d %v", name, code, m)
	}
}

func TestHealthAndList(t *testing.T) {
	_, ts := newServer(t, "")
	code, m := doJSON(t, ts, "GET", "/healthz", "")
	if code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, m)
	}
	buildRestaurants(t, ts, "a")
	buildRestaurants(t, ts, "b")
	code, m = doJSON(t, ts, "GET", "/collections", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d %v", code, m)
	}
	if got := fmt.Sprint(m["collections"]); got != "[a b]" {
		t.Fatalf("collections = %v", got)
	}
	if _, m := doJSON(t, ts, "GET", "/healthz", ""); m["collections"] != float64(2) {
		t.Fatalf("healthz count = %v", m["collections"])
	}
}

func TestBuildSearchTopKStats(t *testing.T) {
	_, ts := newServer(t, "")
	buildRestaurants(t, ts, "rest")

	// Full-budget sketches are lossless: C(Q, X) is exact.
	code, m := doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["five", "guys"], "threshold": 0.5}`)
	if code != http.StatusOK {
		t.Fatalf("search: %d %v", code, m)
	}
	if m["count"] != float64(2) {
		t.Fatalf("count = %v, want 2 (records 0 and 1)", m["count"])
	}
	hits := m["hits"].([]any)
	first := hits[0].(map[string]any)
	if first["id"] != float64(0) || first["estimate"] != float64(1) {
		t.Fatalf("hit 0 = %v, want id 0 estimate 1", first)
	}
	if second := hits[1].(map[string]any); second["id"] != float64(1) || second["estimate"] != float64(0.5) {
		t.Fatalf("hit 1 = %v, want id 1 estimate 0.5", second)
	}

	// Raising the threshold excludes record 1.
	if _, m := doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["five", "guys"], "threshold": 0.6}`); m["count"] != float64(1) {
		t.Fatalf("threshold 0.6: %v", m)
	}

	// limit truncates hits but count reports all qualifying records.
	_, m = doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["five", "guys"], "threshold": 0.5, "limit": 1}`)
	if m["count"] != float64(2) || len(m["hits"].([]any)) != 1 {
		t.Fatalf("limit: %v", m)
	}

	// with_tokens echoes the matched records.
	_, m = doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["five", "guys"], "threshold": 0.9, "with_tokens": true}`)
	toks := m["hits"].([]any)[0].(map[string]any)["tokens"]
	if got := fmt.Sprint(toks); got != "[five guys burgers and fries]" {
		t.Fatalf("tokens = %v", got)
	}

	// Unknown query tokens stay in |Q|: "five guys klingon" has containment
	// 2/3 in record 0, not 1.
	_, m = doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["five", "guys", "klingon"], "threshold": 0.5}`)
	if m["count"] != float64(1) {
		t.Fatalf("unknown-token search: %v", m)
	}
	est := m["hits"].([]any)[0].(map[string]any)["estimate"].(float64)
	if est < 0.66 || est > 0.67 {
		t.Fatalf("estimate with unknown token = %v, want 2/3", est)
	}

	// Top-k: best first.
	code, m = doJSON(t, ts, "POST", "/collections/rest/topk",
		`{"query": ["five", "guys"], "k": 2}`)
	if code != http.StatusOK {
		t.Fatalf("topk: %d %v", code, m)
	}
	hits = m["hits"].([]any)
	if len(hits) != 2 || hits[0].(map[string]any)["id"] != float64(0) {
		t.Fatalf("topk hits = %v", hits)
	}

	code, m = doJSON(t, ts, "GET", "/collections/rest/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, m)
	}
	if m["num_records"] != float64(3) || m["vocab_size"] != float64(10) || m["persistent"] != false {
		t.Fatalf("stats = %v", m)
	}
}

func TestBuildFromFile(t *testing.T) {
	root := t.TempDir()
	data := "five guys burgers and fries\nfive kitchen berkeley\n\nin n out burgers\n"
	if err := os.WriteFile(filepath.Join(root, "records.txt"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}

	// File builds are opt-in: without a configured root they must 400.
	body := `{"file": "records.txt", "options": {"budget_fraction": 1}}`
	_, closed := newServer(t, "")
	if code, _ := doJSON(t, closed, "PUT", "/collections/fromfile", body); code != http.StatusBadRequest {
		t.Fatalf("file build without -record-files: %d, want 400", code)
	}
	_, ts := newServerWith(t, "", StoreOptions{RecordFileRoot: root})
	// Relative paths resolve under the root.
	if code, m := doJSON(t, ts, "PUT", "/collections/fromfile", body); code != http.StatusOK || m["num_records"] != float64(3) {
		t.Fatalf("build from file: %d %v", code, m)
	}
	if _, m := doJSON(t, ts, "POST", "/collections/fromfile/search",
		`{"query": ["five", "guys"], "threshold": 0.9}`); m["count"] != float64(1) {
		t.Fatalf("search after file build: %v", m)
	}
	// Escaping the root — via traversal, an absolute path, or a symlink
	// planted inside the root — is rejected.
	if err := os.Symlink("/etc/passwd", filepath.Join(root, "sneaky.txt")); err != nil {
		t.Fatal(err)
	}
	for _, esc := range []string{"../../etc/passwd", "/etc/passwd", "sneaky.txt"} {
		body := fmt.Sprintf(`{"file": %q}`, esc)
		if code, m := doJSON(t, ts, "PUT", "/collections/escape", body); code != http.StatusBadRequest {
			t.Fatalf("escape %q accepted: %d %v", esc, code, m)
		}
	}
}

func TestInsertAndDelete(t *testing.T) {
	_, ts := newServer(t, "")
	buildRestaurants(t, ts, "rest")
	code, m := doJSON(t, ts, "POST", "/collections/rest/records",
		`{"records": [["shake", "shack", "burgers"], ["five", "guys", "oakland"]]}`)
	if code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, m)
	}
	if got := fmt.Sprint(m["ids"]); got != "[3 4]" {
		t.Fatalf("ids = %v", got)
	}
	if _, m := doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["shake", "shack"], "threshold": 0.9}`); m["count"] != float64(1) {
		t.Fatalf("search for inserted record: %v", m)
	}
	if code, _ := doJSON(t, ts, "DELETE", "/collections/rest", ""); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doJSON(t, ts, "GET", "/collections/rest/stats", ""); code != http.StatusNotFound {
		t.Fatalf("stats after delete: %d, want 404", code)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newServer(t, "") // memory-only: snapshot must 409
	buildRestaurants(t, ts, "rest")
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"stats missing", "GET", "/collections/nope/stats", "", 404},
		{"search missing", "POST", "/collections/nope/search", `{"query":["a"],"threshold":0.5}`, 404},
		{"topk missing", "POST", "/collections/nope/topk", `{"query":["a"],"k":1}`, 404},
		{"insert missing", "POST", "/collections/nope/records", `{"records":[["a"]]}`, 404},
		{"snapshot missing", "POST", "/collections/nope/snapshot", "", 404},
		{"delete missing", "DELETE", "/collections/nope", "", 404},
		{"build bad name", "PUT", "/collections/.hidden", restaurants, 400},
		{"build slashy name", "PUT", "/collections/a%2Fb", restaurants, 400},
		{"build no body", "PUT", "/collections/x", "", 400},
		{"build bad json", "PUT", "/collections/x", `{"records": [`, 400},
		{"build unknown field", "PUT", "/collections/x", `{"record": []}`, 400},
		{"build neither", "PUT", "/collections/x", `{}`, 400},
		{"build both", "PUT", "/collections/x", `{"records": [["a"]], "file": "x.txt"}`, 400},
		{"build empty record", "PUT", "/collections/x", `{"records": [["a"], []]}`, 400},
		{"build missing file", "PUT", "/collections/x", `{"file": "/no/such/file"}`, 400},
		{"build zero budget", "PUT", "/collections/x", `{"records": [["a","b"]], "options": {"budget_fraction": 0.001}}`, 400},
		{"insert empty batch", "POST", "/collections/rest/records", `{"records": []}`, 400},
		{"insert empty record", "POST", "/collections/rest/records", `{"records": [[]]}`, 400},
		{"search bad threshold", "POST", "/collections/rest/search", `{"query":["a"],"threshold":1.5}`, 400},
		{"search empty query", "POST", "/collections/rest/search", `{"query":[],"threshold":0.5}`, 400},
		{"topk zero k", "POST", "/collections/rest/topk", `{"query":["five"],"k":0}`, 400},
		{"snapshot memory-only", "POST", "/collections/rest/snapshot", "", 409},
	}
	for _, c := range cases {
		code, m := doJSON(t, ts, c.method, c.path, c.body)
		if code != c.want {
			t.Errorf("%s: status %d (%v), want %d", c.name, code, m, c.want)
		}
		if _, ok := m["error"]; !ok {
			t.Errorf("%s: no error field in %v", c.name, m)
		}
	}
	// Options no index is built under: a 400 naming the option, and no
	// generation on disk.
	dir := t.TempDir()
	diskStore, diskTS := newServer(t, dir)
	defer diskStore.Close()
	for _, c := range []struct{ options, names string }{
		{`{"budget_units": 1125899906842624, "buffer_bits": 1099511627776}`, "BufferBits"}, // past the bound on r
		{`{"buffer_bits": -2}`, "BufferBits"},
		{`{"budget_fraction": 2}`, "BudgetFraction"},
	} {
		code, m := doJSON(t, diskTS, "PUT", "/collections/refused", `{"records": [["a","b"]], "options": `+c.options+`}`)
		if msg, _ := m["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, c.names) {
			t.Errorf("options %s: %d %v, want a 400 naming %s", c.options, code, m, c.names)
		}
	}
	if names := diskStore.Names(); len(names) != 0 {
		t.Errorf("refused builds left collections %v", names)
	}
	if _, err := os.Stat(filepath.Join(dir, "refused")); err == nil {
		t.Error("a refused build left a collection directory")
	}
	// Wrong method on a valid route (the mux's own error path).
	req, _ := http.NewRequest("GET", ts.URL+"/collections/rest/search", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET search: %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentMultiCollection exercises the acceptance scenario: parallel
// searches against two named collections while inserts land on both.
func TestConcurrentMultiCollection(t *testing.T) {
	_, ts := newServer(t, t.TempDir())
	buildRestaurants(t, ts, "east")
	buildRestaurants(t, ts, "west")

	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := "east"
			if w%2 == 1 {
				name = "west"
			}
			for i := 0; i < 25; i++ {
				code, m := doJSON(t, ts, "POST", "/collections/"+name+"/search",
					`{"query": ["five", "guys"], "threshold": 0.9}`)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("search %s: %d %v", name, code, m)
					return
				}
				if m["count"].(float64) < 1 {
					errs <- fmt.Sprintf("search %s lost record 0: %v", name, m)
					return
				}
				if i%5 == 0 {
					body := fmt.Sprintf(`{"records": [["w%d", "i%d", "burgers"]]}`, w, i)
					if code, m := doJSON(t, ts, "POST", "/collections/"+name+"/records", body); code != http.StatusOK {
						errs <- fmt.Sprintf("insert %s: %d %v", name, code, m)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// 4 workers per collection × 5 inserts each on top of 3 records.
	for _, name := range []string{"east", "west"} {
		if _, m := doJSON(t, ts, "GET", "/collections/"+name+"/stats", ""); m["num_records"] != float64(23) {
			t.Errorf("%s: num_records = %v, want 23", name, m["num_records"])
		}
	}
}

// searchBoth captures the answers the restart tests must preserve.
func searchBoth(t *testing.T, ts *httptest.Server, name string) []any {
	t.Helper()
	_, m := doJSON(t, ts, "POST", "/collections/"+name+"/search",
		`{"query": ["five", "guys", "burgers"], "threshold": 0.3, "with_tokens": true}`)
	hits, ok := m["hits"].([]any)
	if !ok {
		t.Fatalf("search %s: %v", name, m)
	}
	return hits
}

// TestRestartGraceful: snapshot-on-shutdown (Store.Close) then reload.
func TestRestartGraceful(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	buildRestaurants(t, ts, "rest")
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["shake", "shack", "burgers"]]}`)
	want := searchBoth(t, ts, "rest")
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	if got := searchBoth(t, ts2, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after graceful restart:\n got  %v\n want %v", got, want)
	}
	// Close snapshotted, so nothing is left in the journal.
	if _, m := doJSON(t, ts2, "GET", "/collections/rest/stats", ""); m["journaled_inserts"] != float64(0) {
		t.Fatalf("journaled_inserts after graceful restart = %v", m["journaled_inserts"])
	}
}

// TestRestartAfterKill: the store is abandoned without Close (as in a crash
// or SIGKILL); dynamic inserts must come back via journal replay because
// Insert fsyncs each batch.
func TestRestartAfterKill(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir)
	buildRestaurants(t, ts, "rest")
	doJSON(t, ts, "POST", "/collections/rest/records",
		`{"records": [["shake", "shack", "burgers"], ["hopdoddy", "burgers"]]}`)
	// A rejected batch must leave no trace: its tokens must not claim
	// vocabulary ids, or replay would re-intern later tokens under
	// different ids than the live server acknowledged.
	if code, _ := doJSON(t, ts, "POST", "/collections/rest/records",
		`{"records": [["polluter"], []]}`); code != http.StatusBadRequest {
		t.Fatalf("batch with empty record accepted: %d", code)
	}
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["五", "guys"]]}`)
	want := searchBoth(t, ts, "rest")
	wantStats := doJSONBody(t, ts, "GET", "/collections/rest/stats")
	ts.Close() // no store.Close(): simulated kill

	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	if got := searchBoth(t, ts2, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("after kill-restart:\n got  %v\n want %v", got, want)
	}
	gotStats := doJSONBody(t, ts2, "GET", "/collections/rest/stats")
	// The query generation is an in-memory cache epoch, reset by reload on
	// purpose (a fresh collection starts with an empty cache); everything
	// else must round-trip.
	delete(gotStats, "query_generation")
	delete(wantStats, "query_generation")
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("stats after kill-restart:\n got  %v\n want %v", gotStats, wantStats)
	}
	if gotStats["journaled_inserts"] != float64(3) {
		t.Fatalf("journaled_inserts = %v, want 3 replayed", gotStats["journaled_inserts"])
	}
}

func doJSONBody(t *testing.T, ts *httptest.Server, method, path string) map[string]any {
	t.Helper()
	_, m := doJSON(t, ts, method, path, "")
	return m
}

// TestSnapshotEndpoint: an explicit snapshot bumps the generation, absorbs
// the journal, retains the parent generation's files as the corruption
// fallback target, and sweeps the grandparent.
func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	defer store.Close()
	buildRestaurants(t, ts, "rest")
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["shake", "shack"]]}`)

	if _, m := doJSON(t, ts, "GET", "/collections/rest/stats", ""); m["generation"] != float64(1) || m["journaled_inserts"] != float64(1) {
		t.Fatalf("before snapshot: %v", m)
	}
	code, m := doJSON(t, ts, "POST", "/collections/rest/snapshot", "")
	if code != http.StatusOK || m["generation"] != float64(2) || m["journaled_inserts"] != float64(0) {
		t.Fatalf("snapshot: %d %v", code, m)
	}
	cdir := filepath.Join(dir, "rest")
	// Generation 1 is generation 2's parent: its files are retained so a
	// corrupt generation 2 can fall back, and meta-prev.json records it.
	for _, live := range []string{"meta.json", "meta-prev.json",
		"index-1.snap", "vocab-1.snap", "journal-1.log",
		"index-2.snap", "vocab-2.snap", "journal-2.log"} {
		if _, err := os.Stat(filepath.Join(cdir, live)); err != nil {
			t.Errorf("%s missing after snapshot: %v", live, err)
		}
	}
	// A second snapshot supersedes generation 1 entirely: generation 2 is
	// the new parent, 1 is swept.
	if code, m := doJSON(t, ts, "POST", "/collections/rest/snapshot", ""); code != http.StatusOK || m["generation"] != float64(3) {
		t.Fatalf("second snapshot: %d %v", code, m)
	}
	for _, stale := range []string{"index-1.snap", "vocab-1.snap", "journal-1.log"} {
		if _, err := os.Stat(filepath.Join(cdir, stale)); !os.IsNotExist(err) {
			t.Errorf("%s not removed after second snapshot", stale)
		}
	}
	for _, live := range []string{"index-2.snap", "vocab-2.snap", "journal-2.log"} {
		if _, err := os.Stat(filepath.Join(cdir, live)); err != nil {
			t.Errorf("parent generation file %s missing after second snapshot: %v", live, err)
		}
	}
	// Journal after snapshot lands in the new generation and still replays.
	doJSON(t, ts, "POST", "/collections/rest/records", `{"records": [["post", "snapshot"]]}`)
	want := searchBoth(t, ts, "rest")
	ts.Close()

	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	if got := searchBoth(t, ts2, "rest"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart after snapshot:\n got  %v\n want %v", got, want)
	}
}

// TestReplaceCollection: PUT over an existing name swaps in the new build,
// and the replacement (not the original) survives a restart.
func TestReplaceCollection(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	buildRestaurants(t, ts, "rest")
	code, m := doJSON(t, ts, "PUT", "/collections/rest",
		`{"records": [["tacos", "al", "pastor"]], "options": {"budget_fraction": 1}}`)
	if code != http.StatusOK || m["num_records"] != float64(1) {
		t.Fatalf("replace: %d %v", code, m)
	}
	if _, m := doJSON(t, ts, "POST", "/collections/rest/search",
		`{"query": ["five", "guys"], "threshold": 0.5}`); m["count"] != float64(0) {
		t.Fatalf("old records visible after replace: %v", m)
	}
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	if _, m := doJSON(t, ts2, "POST", "/collections/rest/search",
		`{"query": ["tacos"], "threshold": 0.5}`); m["count"] != float64(1) {
		t.Fatalf("replacement lost on restart: %v", m)
	}
}

// TestStaleHandleInsertRejected: an insert through a *Collection held from
// before a replace or delete must fail loudly — even on a memory-only
// store, where there is no journal to signal the quiesce — rather than
// acknowledge records into an orphaned index.
func TestStaleHandleInsertRejected(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		store, ts := newServer(t, dir)
		buildRestaurants(t, ts, "rest")
		stale, err := store.Get("rest")
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Delete("rest"); err != nil {
			t.Fatal(err)
		}
		if _, err := stale.Insert([][]string{{"lost", "forever"}}, ""); err == nil {
			t.Fatalf("dir=%q: insert on deleted collection acknowledged", dir)
		}
		buildRestaurants(t, ts, "rest2")
		stale, err = store.Get("rest2")
		if err != nil {
			t.Fatal(err)
		}
		buildRestaurants(t, ts, "rest2") // replace
		if _, err := stale.Insert([][]string{{"lost", "again"}}, ""); err == nil {
			t.Fatalf("dir=%q: insert on replaced collection acknowledged", dir)
		}
	}
}

// TestDeletePurgesDisk: a deleted collection does not resurrect on restart.
func TestDeletePurgesDisk(t *testing.T) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	buildRestaurants(t, ts, "gone")
	doJSON(t, ts, "DELETE", "/collections/gone", "")
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatal("collection directory survived delete")
	}
	ts.Close()
	store.Close()
	store2, ts2 := newServer(t, dir)
	defer store2.Close()
	if code, _ := doJSON(t, ts2, "GET", "/collections/gone/stats", ""); code != http.StatusNotFound {
		t.Fatalf("deleted collection resurrected: %d", code)
	}
}
