package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// Degradation tests: under overload or expired deadlines the server sheds
// load with 503 + Retry-After instead of queueing without bound, counts what
// it shed, and exempts the replication stream from request deadlines (a wal
// long-poll is *supposed* to outlive them).

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func TestInsertGateShedsLoad(t *testing.T) {
	store, ts := newServerWith(t, "", StoreOptions{MaxInflightInserts: 1})
	buildRestaurants(t, ts, "c")

	// Occupy the only slot, as a slow in-flight insert would.
	release, ok := store.acquireInsertSlot()
	if !ok || release == nil {
		t.Fatal("could not occupy the insert slot")
	}
	req, _ := http.NewRequest("POST", ts.URL+"/collections/c/records", strings.NewReader(`{"records": [["x"]]}`))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated insert: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if expo := metricsText(t, ts.URL); !strings.Contains(expo, `gbkmv_shed_load_total{reason="inflight_inserts"} 1`) {
		t.Fatalf("shed metric not counted:\n%s", expo)
	}

	// Reads are never gated by the insert gate.
	if code, m := doJSON(t, ts, "POST", "/collections/c/search",
		`{"query": ["five"], "threshold": 0.5}`); code != http.StatusOK {
		t.Fatalf("search during insert overload: %d %v", code, m)
	}
	// Releasing the slot restores writes.
	release()
	if code, m := doJSON(t, ts, "POST", "/collections/c/records", `{"records": [["ok"]]}`); code != http.StatusOK {
		t.Fatalf("insert after release: %d %v", code, m)
	}
	// A store opened without the bound never gates.
	open, _ := newServer(t, "")
	if release, ok := open.acquireInsertSlot(); !ok || release != nil {
		t.Fatalf("unbounded store gated an insert: release set %v, ok %v", release != nil, ok)
	}
}

func TestRequestDeadlineSheds(t *testing.T) {
	dir := t.TempDir()
	built, unbounded := newServer(t, dir)
	buildRestaurants(t, unbounded, "c")
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	// A deadline that has always already expired: every deadline-checking
	// handler sheds at entry. (The build above needed a store without it.)
	_, ts := newServerWith(t, dir, StoreOptions{RequestTimeout: time.Nanosecond})
	for _, ep := range []struct{ method, path, body string }{
		{"POST", "/collections/c/records", `{"records": [["x"]]}`},
		{"POST", "/collections/c/search", `{"query": ["five"], "threshold": 0.5}`},
		{"POST", "/collections/c/topk", `{"query": ["five"], "k": 1}`},
	} {
		code, m := doJSON(t, ts, ep.method, ep.path, ep.body)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s with expired deadline: %d %v, want 503", ep.method, ep.path, code, m)
		}
	}
	if expo := metricsText(t, ts.URL); !strings.Contains(expo, `gbkmv_shed_load_total{reason="deadline"}`) {
		t.Fatalf("deadline shed metric not counted:\n%s", expo)
	}

	// The replication stream is exempt: a wal request under the same expired
	// deadline still serves its chunk (long-polls must outlive request
	// deadlines by design).
	req, _ := http.NewRequest("GET", ts.URL+"/collections/c/wal?gen=1&from=0", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal stream under request deadline: %d, want 200 (repl transfers are exempt)", resp.StatusCode)
	}
}

// TestResponseWriteDeadline turns on -write-timeout at a deadline that has
// always already passed: a search's response cannot be written, so the
// client gets no complete answer, while the replication stream — exempt —
// is served in full. The deadline reaches the connection only through
// traceWriter.Unwrap (the middleware discards SetWriteDeadline's error), so
// without that method this test fails.
func TestResponseWriteDeadline(t *testing.T) {
	dir := t.TempDir()
	built, unbounded := newServer(t, dir)
	buildRestaurants(t, unbounded, "c")
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newServerWith(t, dir, StoreOptions{ResponseWriteTimeout: time.Nanosecond})
	resp, err := ts.Client().Post(ts.URL+"/collections/c/search", "application/json",
		strings.NewReader(`{"query": ["five", "guys"], "threshold": 0.5}`))
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatalf("search under an expired write deadline answered %d in full", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/collections/c/wal?gen=1&from=0")
	if err != nil {
		t.Fatalf("wal stream under write deadline: %v (repl transfers are exempt)", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("wal stream under write deadline: %d, %v; want a complete 200 (repl transfers are exempt)", resp.StatusCode, err)
	}
}
