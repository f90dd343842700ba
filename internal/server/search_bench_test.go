package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

// BenchmarkServerSearchBatch compares one 32-query batch request (batch32)
// against the same 32 queries as sequential requests (seq32); one op covers
// all 32 queries in both cases, so ns/op is directly comparable (batch32 <
// seq32). Cache enabled in both, as in production.
func BenchmarkServerSearchBatch(b *testing.B) {
	const nq = 32
	store, err := NewStore("", func(string, ...any) {})
	if err != nil {
		b.Fatal(err)
	}
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
	if _, err := store.Create("bench", voc, eng); err != nil {
		b.Fatal(err)
	}
	h := Handler(store)

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

	// run POSTs every body to path once per op, through one request object
	// and body reader reset per request: the benchmark measures the handler,
	// not request construction.
	run := func(path string, bodies [][]byte) func(b *testing.B) {
		return func(b *testing.B) {
			u, err := url.Parse(path)
			if err != nil {
				b.Fatal(err)
			}
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
				for _, body := range bodies {
					rd.Reset(body)
					req.ContentLength = int64(len(body))
					rw.code = 0
					h.ServeHTTP(rw, req)
					if rw.code != http.StatusOK {
						b.Fatalf("%s: status %d", path, rw.code)
					}
				}
			}
		}
	}
	b.Run("seq32", run("/collections/bench/search", singles))
	b.Run("batch32", run("/collections/bench/search:batch", [][]byte{batchBody}))
}
