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
// fifth. What a cache hit still allocates (8 or 9 objects at one segment): the
// request id and its header slice, ServeMux's path values, MaxBytesReader, the
// clone of the cached query (2 a segment, and 2 more for a Segmented's own).
// A miss adds what outlives it: the prepared query and its two cache entries.
// At two segments the bytes, not the objects, also hold what starting the
// fan's goroutines costs: AllocsPerRun counts at GOMAXPROCS 1, where the fan
// runs inline (TestAppendForms in the root package counts them). Before the
// bodies were scanned and results appended, the same requests allocated 30
// objects and 8.4 kB (hit, two segments) and 108 and 8.5 kB (miss).
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
	for _, segments := range []int{1, 2} {
		store, err := NewStore("", func(string, ...any) {})
		if err != nil {
			t.Fatal(err)
		}
		voc := gbkmv.NewVocabulary()
		recs := make([]gbkmv.Record, len(records))
		for i, tokens := range records {
			recs[i] = voc.Record(tokens)
		}
		eng, err := gbkmv.NewSegmented("gbkmv", segments, recs, gbkmv.EngineOptions{BudgetFraction: 0.1, Seed: 7})
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
		// Measured allocations and bytes a request, at one and at two segments.
		for _, c := range []struct {
			name    string
			request func()
			allocs  [2]float64
			bytes   [2]float64
		}{
			{"cache-hit search", func() { post(search, hit) }, [2]float64{9, 11}, [2]float64{352, 601}},
			{"cache-miss search of 46 tokens", func() { post(search, misses[next]); next++ }, [2]float64{24, 33}, [2]float64{1979, 2405}},
			{"top-k", func() { post(topk, best) }, [2]float64{9, 11}, [2]float64{348, 629}},
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
			t.Logf("segments=%d, %s: %.1f allocations, %.0f bytes", segments, c.name, allocs, bytes)
			if maxAllocs, maxBytes := 1.2*c.allocs[segments-1], 1.2*c.bytes[segments-1]; allocs > maxAllocs || bytes > maxBytes {
				t.Errorf("segments=%d, %s: %.1f allocations and %.0f bytes a request, want at most %.1f and %.0f",
					segments, c.name, allocs, bytes, maxAllocs, maxBytes)
			}
		}
	}
}
