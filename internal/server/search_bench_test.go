package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"testing"

	"gbkmv"
)

// The one read-path benchmark the repo's benchmark (bench/) has no row for:
// no workload there sends search:batch. It drives the HTTP handler end to
// end (body scan, prepared-query cache, engine search, hand-written
// response encode) without network or client-library noise.

// benchRW is a no-op ResponseWriter reused across requests.
type benchRW struct {
	h    http.Header
	code int
}

func (w *benchRW) Header() http.Header         { return w.h }
func (w *benchRW) WriteHeader(c int)           { w.code = c }
func (w *benchRW) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServerSearchBatch compares one 32-query batch request (batch32),
// which the handler fans out over GOMAXPROCS workers, against the same 32
// queries as single requests sent from GOMAXPROCS goroutines (singles32);
// one op covers all 32 queries in both cases, so ns/op is directly
// comparable. The cache/ pair runs with the answer cache on, as in
// production (every op after the first is 32 hits), the nocache/ pair with
// it off (32 engine searches an op).
func BenchmarkServerSearchBatch(b *testing.B) {
	const nq = 32
	records := benchCollectionRecords(b, 2500)
	voc := gbkmv.NewVocabulary()
	recs := make([]gbkmv.Record, len(records))
	for i, tokens := range records {
		recs[i] = voc.Record(tokens)
	}
	eng, err := gbkmv.Build(recs, gbkmv.Options{BudgetFraction: 0.1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}

	// Full records as queries: the containment-search serving shape (is this
	// set contained in an indexed one?), spread out over the collection so
	// that searches have real work to do.
	queries := make([]json.RawMessage, nq)
	singles := make([][]byte, nq)
	for i := range queries {
		if queries[i], err = json.Marshal(records[(i*97)%len(records)]); err != nil {
			b.Fatal(err)
		}
		singles[i] = []byte(fmt.Sprintf(`{"query":%s,"threshold":0.8,"limit":10}`, queries[i]))
	}
	qj, err := json.Marshal(queries)
	if err != nil {
		b.Fatal(err)
	}
	batchBody := []byte(fmt.Sprintf(`{"queries":%s,"threshold":0.8,"limit":10}`, qj))

	// run POSTs every body to path once per op, body i from goroutine
	// i mod senders, each through one request object and body reader reset
	// per request: the benchmark measures the handler, not request
	// construction.
	run := func(h http.Handler, path string, bodies [][]byte, senders int) func(b *testing.B) {
		return func(b *testing.B) {
			u, err := url.Parse(path)
			if err != nil {
				b.Fatal(err)
			}
			send := func(w int, bodies [][]byte) {
				rw := &benchRW{h: make(http.Header)}
				rd := bytes.NewReader(nil)
				req := &http.Request{
					Method: "POST", URL: u,
					Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
					Header: make(http.Header), Host: "bench",
					Body: io.NopCloser(rd),
				}
				for i := w; i < len(bodies); i += senders {
					rd.Reset(bodies[i])
					req.ContentLength = int64(len(bodies[i]))
					rw.code = 0
					h.ServeHTTP(rw, req)
					if rw.code != http.StatusOK {
						b.Errorf("%s: status %d", path, rw.code)
						return
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < b.N; i++ {
				wg.Add(senders)
				for w := range senders {
					go func() {
						defer wg.Done()
						send(w, bodies)
					}()
				}
				wg.Wait()
			}
		}
	}
	for _, c := range []struct {
		name    string
		entries int
	}{{"cache", 0}, {"nocache", -1}} {
		store, err := OpenStore("", StoreOptions{Logf: func(string, ...any) {}, QueryCacheEntries: c.entries})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Create("bench", voc, eng); err != nil {
			b.Fatal(err)
		}
		h := Handler(store)
		b.Run(c.name+"/singles32", run(h, "/collections/bench/search", singles, runtime.GOMAXPROCS(0)))
		b.Run(c.name+"/batch32", run(h, "/collections/bench/search:batch", [][]byte{batchBody}, 1))
	}
}
