package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	"gbkmv/internal/fsx"
	"gbkmv/internal/snapfmt"
)

// TestEngineCollectionLifecycle is the acceptance path for the one sketch
// configuration beside the default that gbkmvd builds, G-KMV
// ("buffer_bits": -1, what the gkmv engine is): create, search, insert,
// snapshot, kill (no graceful close), and reload — with no buffer in /stats
// before and after, and the post-restart search results identical.
func TestEngineCollectionLifecycle(t *testing.T) {
	t.Run("gkmv", func(t *testing.T) {
		dir := t.TempDir()
		store, ts := newServer(t, dir)
		if code, m := doJSON(t, ts, "PUT", "/collections/rest", `{
			"records": [
				["five", "guys", "burgers", "and", "fries"],
				["five", "kitchen", "berkeley"],
				["in", "n", "out", "burgers"]
			],
			"options": {"budget_units": 1000, "buffer_bits": -1}
		}`); code != http.StatusOK {
			t.Fatalf("build: %d %v", code, m)
		}
		unbuffered := func(m map[string]any) bool {
			_, buffered := m["buffer_bytes"]
			return m["engine"] == "gbkmv" && m["buffer_bits"] == float64(0) && !buffered
		}
		if m := statsOf(t, ts, "rest"); !unbuffered(m) {
			t.Fatalf("stats of a buffer-less build: %v", m)
		}
		// Journaled insert, then an explicit snapshot, then another insert
		// that only the journal knows about.
		if code, m := doJSON(t, ts, "POST", "/collections/rest/records",
			`{"records": [["five", "guys", "fries"]]}`); code != http.StatusOK {
			t.Fatalf("insert: %d %v", code, m)
		}
		if code, m := doJSON(t, ts, "POST", "/collections/rest/snapshot", ""); code != http.StatusOK {
			t.Fatalf("snapshot: %d %v", code, m)
		}
		if code, m := doJSON(t, ts, "POST", "/collections/rest/records",
			`{"records": [["in", "n", "out"]]}`); code != http.StatusOK {
			t.Fatalf("post-snapshot insert: %d %v", code, m)
		}
		search := func(ts *httptest.Server) any {
			t.Helper()
			code, m := doJSON(t, ts, "POST", "/collections/rest/search",
				`{"query": ["five", "guys"], "threshold": 0.5}`)
			if code != http.StatusOK {
				t.Fatalf("search: %d %v", code, m)
			}
			return m["hits"]
		}
		want := search(ts)
		ts.Close()
		// Kill: no store.Close(), so the last insert lives only in the
		// journal and must replay into the reloaded index.
		_ = store

		store2, ts2 := newServer(t, dir)
		defer store2.Close()
		m := statsOf(t, ts2, "rest")
		if !unbuffered(m) || m["num_records"] != float64(5) {
			t.Fatalf("stats after reload: %v", m)
		}
		if got := search(ts2); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-restart search:\n got  %v\n want %v", got, want)
		}
	})
}

func statsOf(t *testing.T, ts *httptest.Server, name string) map[string]any {
	t.Helper()
	code, m := doJSON(t, ts, "GET", "/collections/"+name+"/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats %s: %d %v", name, code, m)
	}
	return m
}

// TestBuildUnknownEngineRejected: gbkmvd builds GB-KMV only. A build naming
// any other engine, registered or not, is a client error that leaves no
// collection behind; "gkmv" is answered with the option that builds it. The
// baselines' own options are not build options at all.
func TestBuildUnknownEngineRejected(t *testing.T) {
	_, ts := newServer(t, "")
	for _, c := range []struct{ name, options, says string }{
		{"unregistered", `"engine": "nope"`, `"nope"`},
		{"kmv", `"engine": "kmv"`, `"kmv"`},
		{"gkmv", `"engine": "gkmv"`, `"buffer_bits": -1`},
		{"num_hashes", `"num_hashes": 64`, "num_hashes"},
		{"num_partitions", `"num_partitions": 8`, "num_partitions"},
	} {
		code, m := doJSON(t, ts, "PUT", "/collections/x",
			`{"records": [["a", "b"]], "options": {"budget_units": 10, `+c.options+`}}`)
		if code != http.StatusBadRequest {
			t.Errorf("%s: %d %v", c.name, code, m)
			continue
		}
		if msg, _ := m["error"].(string); !strings.Contains(msg, c.says) {
			t.Errorf("%s: error %q does not say %s", c.name, msg, c.says)
		}
	}
	if code, m := doJSON(t, ts, "GET", "/collections/x/stats", ""); code != http.StatusNotFound {
		t.Errorf("a refused build left a collection: %d %v", code, m)
	}
	for _, engine := range []string{"", "gbkmv"} {
		code, m := doJSON(t, ts, "PUT", "/collections/x",
			fmt.Sprintf(`{"records": [["a", "b"]], "options": {"engine": %q, "budget_units": 10}}`, engine))
		if code != http.StatusOK || m["engine"] != "gbkmv" {
			t.Errorf("engine %q: %d %v", engine, code, m)
		}
	}
}

// TestInsertDuplicateRequestID covers the WAL-ambiguity fix end to end: a
// retry with the same request_id is rejected with 409 and the original ids —
// through the in-memory window, through a journal-replay restart (the crash
// case the feature exists for), and through a snapshot that truncates the
// journal.
func TestInsertDuplicateRequestID(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir)
	buildRestaurants(t, ts, "rest")

	insert := `{"records": [["shake", "shack"]], "request_id": "req-1"}`
	code, m := doJSON(t, ts, "POST", "/collections/rest/records", insert)
	if code != http.StatusOK || fmt.Sprint(m["ids"]) != "[3]" {
		t.Fatalf("first insert: %d %v", code, m)
	}
	// Immediate retry: rejected, original ids echoed.
	code, m = doJSON(t, ts, "POST", "/collections/rest/records", insert)
	if code != http.StatusConflict || m["duplicate"] != true || fmt.Sprint(m["ids"]) != "[3]" {
		t.Fatalf("retry: %d %v", code, m)
	}
	// A different id is a different request.
	code, m = doJSON(t, ts, "POST", "/collections/rest/records",
		`{"records": [["katz", "deli"]], "request_id": "req-2"}`)
	if code != http.StatusOK || fmt.Sprint(m["ids"]) != "[4]" {
		t.Fatalf("second insert: %d %v", code, m)
	}
	ts.Close()

	// Kill and restart: the window must rebuild from the replayed journal —
	// this is exactly the crash-before-response scenario.
	_, ts2 := newServer(t, dir)
	code, m = doJSON(t, ts2, "POST", "/collections/rest/records", insert)
	if code != http.StatusConflict || fmt.Sprint(m["ids"]) != "[3]" {
		t.Fatalf("retry after replay: %d %v", code, m)
	}
	// Snapshot (truncates the journal), then retry again: the window must
	// survive via the commit record.
	if code, m := doJSON(t, ts2, "POST", "/collections/rest/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, m)
	}
	code, m = doJSON(t, ts2, "POST", "/collections/rest/records", insert)
	if code != http.StatusConflict || fmt.Sprint(m["ids"]) != "[3]" {
		t.Fatalf("retry after snapshot: %d %v", code, m)
	}
	ts2.Close()

	// And once more across a post-snapshot restart (window from meta alone).
	_, ts3 := newServer(t, dir)
	code, m = doJSON(t, ts3, "POST", "/collections/rest/records", insert)
	if code != http.StatusConflict || fmt.Sprint(m["ids"]) != "[3]" {
		t.Fatalf("retry after snapshot+restart: %d %v", code, m)
	}
	// Untagged inserts are never deduplicated.
	for i := 0; i < 2; i++ {
		if code, m := doJSON(t, ts3, "POST", "/collections/rest/records",
			`{"records": [["same", "again"]]}`); code != http.StatusOK {
			t.Fatalf("untagged insert %d: %d %v", i, code, m)
		}
	}
}

// TestInsertDuplicateRequestIDMemoryOnly: the window also works without
// persistence (no journal, no meta — just the in-memory log).
func TestInsertDuplicateRequestIDMemoryOnly(t *testing.T) {
	_, ts := newServer(t, "")
	buildRestaurants(t, ts, "rest")
	insert := `{"records": [["shake", "shack"]], "request_id": "r"}`
	if code, m := doJSON(t, ts, "POST", "/collections/rest/records", insert); code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, m)
	}
	if code, m := doJSON(t, ts, "POST", "/collections/rest/records", insert); code != http.StatusConflict {
		t.Fatalf("retry: %d %v", code, m)
	}
}

// TestRequestLogEviction: the window is bounded; the oldest id ages out.
func TestRequestLogEviction(t *testing.T) {
	l := newRequestLog()
	for i := 0; i <= maxRememberedRequests; i++ {
		l.add(fmt.Sprintf("r%d", i), i, 1)
	}
	if _, ok := l.get("r0"); ok {
		t.Error("oldest request survived past the window")
	}
	if ids, ok := l.get(fmt.Sprintf("r%d", maxRememberedRequests)); !ok || ids[0] != maxRememberedRequests {
		t.Error("newest request missing")
	}
	if len(l.ids) != maxRememberedRequests || len(l.order) != maxRememberedRequests {
		t.Errorf("window size %d/%d, want %d", len(l.ids), len(l.order), maxRememberedRequests)
	}
}

// TestOldFormatSnapshotIsNamedNotQuarantined: a generation whose files
// verify against their checksums but are not this build's snapshot format —
// what an older build left behind — fails to load with
// gbkmv.ErrSnapshotFormat, and nothing is quarantined or fallen back from:
// the bytes are intact, the remedy is a rebuild. A commit record without
// checksums (older still) is the same error, not an unverified load. So is
// the segmented container ("GBKMVSEG") the builds before one index per
// collection wrote: a collection whose committed generation holds one is
// refused, not quarantined. And so is the engine container ("GBKMVENG",
// the version, the engine's name) every build before the snapshot became the
// bare index stream wrapped the index in, whichever engine it names: gbkmv,
// or a baseline, which builds before gbkmvd served GB-KMV only could write.
func TestOldFormatSnapshotIsNamedNotQuarantined(t *testing.T) {
	// engineContainer wraps an index stream in the container header naming
	// engine.
	engineContainer := func(engine string, index []byte) []byte {
		header := append([]byte("GBKMVENG"), snapfmt.Version, byte(len(engine)))
		return append(append(header, engine...), index...)
	}
	// What the previous builds wrote: a gob stream (before the flat format),
	// and the flat format's versions 1 (float64 hash values) and 2 (32-bit
	// keys, the sketch stored beside the records) — the committed file itself
	// with its version byte turned back.
	t.Run("gob-v3", func(t *testing.T) {
		testOldFormatSnapshot(t, func(w io.Writer, _ []byte) error {
			return gob.NewEncoder(w).Encode(struct {
				Version int
				Records [][]uint64
			}{3, [][]uint64{{1, 2, 3}}})
		})
	})
	t.Run("segmented-container", func(t *testing.T) {
		testOldFormatSnapshot(t, func(w io.Writer, current []byte) error {
			// The container's header (magic, format version, flags, the inner
			// engine's name) and, where its options, routing table and segment
			// streams began, the engine container a one-segment container held.
			header := append([]byte("GBKMVSEG"), snapfmt.Version, 1, 5, 'g', 'b', 'k', 'm', 'v')
			_, err := w.Write(append(header, engineContainer("gbkmv", current)...))
			return err
		})
	})
	// The committed index stream inside the engine container, as every
	// build before the snapshot became the index stream wrote it.
	t.Run("engine-container", func(t *testing.T) {
		testOldFormatSnapshot(t, func(w io.Writer, current []byte) error {
			if !bytes.HasPrefix(current, []byte("GBKMVIDX")) {
				t.Fatalf("the index file opens with %q, not the index stream's magic", current[:8])
			}
			_, err := w.Write(engineContainer("gbkmv", current))
			return err
		})
	})
	// A baseline engine's snapshot, as the builds that served every engine
	// wrote it: the container naming an engine other than gbkmv.
	t.Run("kmv", func(t *testing.T) {
		testOldFormatSnapshot(t, func(w io.Writer, current []byte) error {
			_, err := w.Write(engineContainer("kmv", current))
			return err
		})
	})
	for _, version := range []byte{1, 2} {
		t.Run(fmt.Sprintf("version-%d", version), func(t *testing.T) {
			testOldFormatSnapshot(t, func(w io.Writer, current []byte) error {
				old := bytes.Clone(current)
				old[8] = version // the byte after the 8-byte magic
				_, err := w.Write(old)
				return err
			})
		})
	}
}

// testOldFormatSnapshot commits what rewrite makes of the current index file
// in its place and checks that loading names the format, not corruption.
func testOldFormatSnapshot(t *testing.T, rewrite func(w io.Writer, current []byte) error) {
	dir := t.TempDir()
	store, ts := newServer(t, dir)
	buildRestaurants(t, ts, "rest")
	// A derived generation, so that a parent to fall back to exists.
	if code, m := doJSON(t, ts, "POST", "/collections/rest/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, m)
	}
	c, err := store.Get("rest")
	if err != nil {
		t.Fatal(err)
	}
	cdir, gen := c.gens.dir, c.gens.gen
	ts.Close()
	store.Close()

	// Rewrite the committed index as a previous build would have, with a
	// commit record whose checksum matches it.
	m, err := readMeta(fsx.Default, cdir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Parent == 0 {
		t.Fatal("fixture has no parent generation")
	}
	current, err := os.ReadFile(indexPath(cdir, gen))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := writeFileSync(fsx.Default, indexPath(cdir, gen), func(w io.Writer) error { return rewrite(w, current) })
	if err != nil {
		t.Fatal(err)
	}
	writeMeta := func(m meta) {
		t.Helper()
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath(cdir), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m.Checksums["index"] = sum
	writeMeta(m)
	reopen := func(what string) {
		t.Helper()
		var logged []string
		_, err := loadGeneration(fsx.Default, cdir, func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		})
		if !errors.Is(err, gbkmv.ErrSnapshotFormat) {
			t.Fatalf("%s: loadGeneration = %v, want ErrSnapshotFormat", what, err)
		}
		if !strings.Contains(err.Error(), filepath.Base(indexPath(cdir, gen))) {
			t.Errorf("%s: error %q does not name the file", what, err)
		}
		if len(logged) != 0 {
			t.Errorf("%s: load logged a fallback: %q", what, logged)
		}
		if _, err := os.Stat(quarantineDir(cdir, gen)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: generation %d was quarantined (stat: %v)", what, gen, err)
		}
		if _, err := os.Stat(indexPath(cdir, gen)); err != nil {
			t.Errorf("%s: the index file was moved: %v", what, err)
		}
	}
	reopen("old format")
	m.Checksums = nil
	writeMeta(m)
	reopen("no checksums")

	// The daemon skips the collection with a line that says what to do.
	var mu sync.Mutex
	var lines []string
	store2, err := OpenStore(dir, StoreOptions{Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if _, err := store2.Get("rest"); err == nil {
		t.Error("old-format collection was loaded")
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(lines, func(l string) bool {
		return strings.Contains(l, "index-") && strings.Contains(l, "rebuild the collection")
	}) {
		t.Errorf("no log line names the file and says to rebuild: %q", lines)
	}
}
