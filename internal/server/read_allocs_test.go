package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"testing"

	"gbkmv"
)

// TestReadPathAllocs pins what a search request allocates between net/http
// handing it over and the response's bytes: through Handler, with a request
// and a ResponseWriter that are reused, so that what is counted is this
// package and the engine under it. The bounds are the measured figures plus a
// fifth, measured in a run of the whole package, where the request counter is
// past one hex digit (a hit's bytes are 115 to 124 as the id grows a digit).
// A cache hit, search or top-k, is 5 objects, and all of them net/http's or
// the middleware's: the request id (its digits and the id), its header slice,
// ServeMux's path values and MaxBytesReader. It neither tokenizes, prepares
// nor searches, and unpacks the cached answer into pooled scratch. A miss adds
// the prepared query, which dies with the request, and what outlives it: the
// cache entry, its key and its packed answer.
func TestReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (instrumented allocs, lossy sync.Pool)")
	}
	records := benchCollectionRecords(t, 5000)
	var long [][]string // records a 46-token query can be cut from
	for _, r := range records {
		if len(r) >= 46 {
			long = append(long, r[:46])
		}
	}
	store, err := NewStore("", func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	voc := gbkmv.NewVocabulary()
	recs := make([]gbkmv.Record, len(records))
	for i, tokens := range records {
		recs[i] = voc.Record(tokens)
	}
	eng, err := gbkmv.Build(recs, gbkmv.Options{BudgetFraction: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Create("c", voc, eng); err != nil {
		t.Fatal(err)
	}
	h := Handler(store)
	rw := &benchRW{h: make(http.Header)}
	rd := bytes.NewReader(nil)
	req := &http.Request{Method: "POST", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Host: "t", Body: io.NopCloser(rd)}
	post := func(u *url.URL, body []byte) {
		rd.Reset(body)
		req.URL, req.ContentLength = u, int64(len(body))
		rw.code = 0
		h.ServeHTTP(rw, req)
		if rw.code != http.StatusOK {
			t.Fatalf("%s %s: status %d", u, body, rw.code)
		}
	}
	search, _ := url.Parse("/collections/c/search")
	topk, _ := url.Parse("/collections/c/topk")
	body := func(format string, tokens []string) []byte {
		q, err := json.Marshal(tokens)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(fmt.Sprintf(format, q))
	}
	const runs = 200 // requests a case measures twice over, each a different query on a miss
	if len(long) < 2*runs+2 {
		t.Fatalf("only %d records of 46 tokens", len(long))
	}
	var misses [][]byte
	for _, tokens := range long {
		misses = append(misses, body(`{"query":%s,"threshold":0.7,"limit":100}`, tokens))
	}
	hit := body(`{"query":%s,"threshold":0.7,"limit":100}`, records[7][:20])
	best := body(`{"query":%s,"k":10}`, records[7][:20])
	next := 0
	// Measured allocations and bytes a request.
	for _, c := range []struct {
		name    string
		request func()
		allocs  float64
		bytes   float64
	}{
		{"cache-hit search", func() { post(search, hit) }, 5, 124},
		{"cache-miss search of 46 tokens", func() { post(search, misses[next]); next++ }, 15, 1145},
		{"top-k", func() { post(topk, best) }, 5, 124},
	} {
		c.request() // the pools' buffers, and the hit's cache entry
		allocs := testing.AllocsPerRun(runs, c.request)
		// The least of a few rounds: a round a collection cycle falls
		// into also pays for the pooled scratch the cycle dropped.
		bytes := math.Inf(1)
		for round := 0; round < 4; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs/4; i++ {
				c.request()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/(runs/4))
		}
		t.Logf("%s: %.1f allocations, %.0f bytes", c.name, allocs, bytes)
		if maxAllocs, maxBytes := 1.2*c.allocs, 1.2*c.bytes; allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s: %.1f allocations and %.0f bytes a request, want at most %.1f and %.0f",
				c.name, allocs, bytes, maxAllocs, maxBytes)
		}
	}
}
