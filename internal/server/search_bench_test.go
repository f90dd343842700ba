package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"

	"gbkmv"
	"gbkmv/internal/dataset"
)

// Server read-path benchmarks: C concurrent clients driving the HTTP
// handler end to end (JSON decode, prepared-query cache, engine search,
// hand-written response encode) without network or client-library noise.
// hot-* runs use the prepared-query cache with a small recurring query set —
// the skewed-traffic case the cache exists for; cold-* runs disable the
// cache, so every request pays the full query canonicalization + sketch,
// which is exactly the pre-PR5 read path. The ISSUE 5 acceptance compares
// the two: hot must be ≥2× faster and ≥5× lighter in allocations.

// benchCollectionRecords returns the token records of the benchmark corpus.
func benchCollectionRecords(b testing.TB, n int) [][]string {
	b.Helper()
	out := make([][]string, 0, n)
	// Record sizes follow the paper's set-valued serving workloads (domain
	// and column search): sets of tens to hundreds of values, which is also
	// the regime where sketching the query dominates a selective search.
	cfg := dataset.SyntheticConfig{
		NumRecords: 1, Universe: 20000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 30, MaxSize: 200,
	}
	err := dataset.StreamSynthetic(cfg, 42, n, func(i int, r dataset.Record) error {
		tokens := make([]string, len(r))
		for j, e := range r {
			tokens[j] = fmt.Sprintf("e%d", e)
		}
		out = append(out, tokens)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// newSearchBenchHandler builds a memory-only store holding one gbkmv
// collection over n synthetic records, sharded across the given segment
// count, with the given per-collection query cache size, and returns its
// HTTP handler plus the raw token records. The main read benchmarks run at
// one segment, which the CI gate holds to the pre-segmentation baselines.
func newSearchBenchHandler(b *testing.B, n, cacheEntries, segments int) (http.Handler, [][]string) {
	b.Helper()
	store, err := NewStore("", func(string, ...any) {})
	if err != nil {
		b.Fatal(err)
	}
	store.SetQueryCacheSize(cacheEntries)
	records := benchCollectionRecords(b, n)
	voc := gbkmv.NewVocabulary()
	recs := make([]gbkmv.Record, len(records))
	for i, tokens := range records {
		recs[i] = voc.Record(tokens)
	}
	eng, err := gbkmv.NewSegmented("gbkmv", segments, recs, gbkmv.EngineOptions{BudgetFraction: 0.1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.Create("bench", voc, eng); err != nil {
		b.Fatal(err)
	}
	return Handler(store), records
}

// benchQueryBodies pre-marshals nq distinct request bodies whose queries are
// prefixes of spread-out records (so searches have real work to do).
func benchQueryBodies(b *testing.B, records [][]string, nq int, format func(q []byte) string) [][]byte {
	b.Helper()
	bodies := make([][]byte, nq)
	for i := range bodies {
		// Full records as queries: the containment-search serving shape (is
		// this set contained in an indexed one?), and the regime where query
		// sketching is the dominant per-request cost the cache removes.
		tokens := records[(i*97)%len(records)]
		qj, err := json.Marshal(tokens)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = []byte(format(qj))
	}
	return bodies
}

// benchRW is a no-op ResponseWriter reused across one client's requests.
type benchRW struct {
	h    http.Header
	code int
}

func (w *benchRW) Header() http.Header         { return w.h }
func (w *benchRW) WriteHeader(c int)           { w.code = c }
func (w *benchRW) Write(p []byte) (int, error) { return len(p), nil }

// driveHandler hammers the handler with b.N POSTs to path, the bodies
// cycling per request, across the given client goroutines.
func driveHandler(b *testing.B, h http.Handler, clients int, path string, bodies [][]byte) {
	u, err := url.Parse(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rw := &benchRW{h: make(http.Header)}
			// One request object and body reader per client, reset per
			// request: the benchmark measures the handler, not request
			// construction.
			rd := bytes.NewReader(nil)
			req := &http.Request{
				Method: "POST", URL: u,
				Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
				Header: make(http.Header), Host: "bench",
				Body: io.NopCloser(rd),
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				body := bodies[i%len(bodies)]
				rd.Reset(body)
				req.ContentLength = int64(len(body))
				rw.code = 0
				h.ServeHTTP(rw, req)
				if rw.code != http.StatusOK {
					b.Errorf("%s: status %d", path, rw.code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// benchModes is the hot/cold cache matrix shared by the search and top-k
// benchmarks.
var benchModes = []struct {
	name    string
	entries int
}{
	{"hot", DefaultQueryCacheEntries},
	{"cold", 0},
}

// BenchmarkServerSearch measures the full HTTP search path at 1/8/32
// concurrent clients, cache-hit (hot) vs no-cache (cold).
func BenchmarkServerSearch(b *testing.B) {
	for _, mode := range benchModes {
		h, records := newSearchBenchHandler(b, 2500, mode.entries, 1)
		bodies := benchQueryBodies(b, records, 64, func(q []byte) string {
			return fmt.Sprintf(`{"query":%s,"threshold":0.8,"limit":10}`, q)
		})
		for _, clients := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s-c%d", mode.name, clients), func(b *testing.B) {
				driveHandler(b, h, clients, "/collections/bench/search", bodies)
			})
		}
	}
}

// BenchmarkServerSearchSegments is the read-path segment-scaling matrix:
// each search fans out across the segments through the work-stealing pool
// and merges per-segment results. Cold cache so every request pays the full
// fan-out; seg1 is the no-fan-out baseline the CI gate compares.
func BenchmarkServerSearchSegments(b *testing.B) {
	for _, segs := range []int{1, 2, 8} {
		h, records := newSearchBenchHandler(b, 2500, 0, segs)
		bodies := benchQueryBodies(b, records, 64, func(q []byte) string {
			return fmt.Sprintf(`{"query":%s,"threshold":0.8,"limit":10}`, q)
		})
		for _, clients := range []int{1, 8} {
			b.Run(fmt.Sprintf("seg%d-c%d", segs, clients), func(b *testing.B) {
				driveHandler(b, h, clients, "/collections/bench/search", bodies)
			})
		}
	}
}

// BenchmarkServerTopK is BenchmarkServerSearch for the top-k endpoint.
func BenchmarkServerTopK(b *testing.B) {
	for _, mode := range benchModes {
		h, records := newSearchBenchHandler(b, 2500, mode.entries, 1)
		bodies := benchQueryBodies(b, records, 64, func(q []byte) string {
			return fmt.Sprintf(`{"query":%s,"k":10}`, q)
		})
		for _, clients := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s-c%d", mode.name, clients), func(b *testing.B) {
				driveHandler(b, h, clients, "/collections/bench/topk", bodies)
			})
		}
	}
}

// BenchmarkServerSearchBatch compares one 32-query batch request (batch32)
// against the same 32 queries as sequential requests (seq32); one op covers
// all 32 queries in both cases, so ns/op is directly comparable (ISSUE 5
// acceptance: batch32 < seq32). Cache enabled in both, as in production.
func BenchmarkServerSearchBatch(b *testing.B) {
	const nq = 32
	h, records := newSearchBenchHandler(b, 2500, DefaultQueryCacheEntries, 1)
	singles := benchQueryBodies(b, records, nq, func(q []byte) string {
		return fmt.Sprintf(`{"query":%s,"threshold":0.8,"limit":10}`, q)
	})
	queries := make([]json.RawMessage, nq)
	for i := range queries {
		var one struct {
			Query json.RawMessage `json:"query"`
		}
		if err := json.Unmarshal(singles[i], &one); err != nil {
			b.Fatal(err)
		}
		queries[i] = one.Query
	}
	qj, err := json.Marshal(queries)
	if err != nil {
		b.Fatal(err)
	}
	batchBody := []byte(fmt.Sprintf(`{"queries":%s,"threshold":0.8,"limit":10}`, qj))

	b.Run("seq32", func(b *testing.B) {
		u, _ := url.Parse("/collections/bench/search")
		rw := &benchRW{h: make(http.Header)}
		rd := bytes.NewReader(nil)
		req := &http.Request{
			Method: "POST", URL: u,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header), Host: "bench",
			Body: io.NopCloser(rd),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, body := range singles {
				rd.Reset(body)
				req.ContentLength = int64(len(body))
				rw.code = 0
				h.ServeHTTP(rw, req)
				if rw.code != http.StatusOK {
					b.Fatalf("status %d", rw.code)
				}
			}
		}
	})
	b.Run("batch32", func(b *testing.B) {
		driveHandler(b, h, 1, "/collections/bench/search:batch", [][]byte{batchBody})
	})
}
