package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"gbkmv"
)

// The hot read-path responses (search, topk and their batch forms) are
// encoded by hand into pooled byte buffers: no map[string]any envelope, no
// reflection, no per-request encoder state. A steady-state cache-hit search
// therefore does O(result) work end to end. The cold paths (stats, errors,
// build responses) keep the reflective encoder, but share the same buffer
// pool so even they allocate no response buffer per request.

// respScratch is the pooled per-request state of the read path: the query's
// cache keys and tokens, the buffer the engine appends its scored results to,
// the []Hit they are materialized into and the response's bytes.
type respScratch struct {
	qkey   qkeyScratch
	scored []gbkmv.Scored
	hits   []Hit
	b      []byte
}

var respPool = sync.Pool{New: func() any { return new(respScratch) }}

func getResp() *respScratch { return respPool.Get().(*respScratch) }

func putResp(sc *respScratch) {
	// A query's tokens are bounded by the body alone: what an outsized one
	// grew is dropped under the scanner's keep rule, not pooled.
	if cap(sc.qkey.slab) > scanKeepBytes || cap(sc.qkey.spans) > scanKeepBytes/16 {
		return
	}
	// Drop token references so pooled buffers don't pin record token slices
	// across requests; keep the backing arrays.
	for i := range sc.hits {
		sc.hits[i].Tokens = nil
	}
	sc.hits = sc.hits[:0]
	sc.b = sc.b[:0]
	respPool.Put(sc)
}

// jsonContentType is the shared Content-Type header value: assigning the
// slice directly (rather than Header().Set) costs no allocation per request.
// Handlers never mutate it. Content-Length is left to net/http, which
// derives it for buffered responses.
var jsonContentType = []string{"application/json"}

// writeRaw sends a pre-encoded JSON body.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}

// appendJSONString appends s as a JSON string literal. The fast path copies
// printable ASCII and multi-byte UTF-8 verbatim; anything needing escapes
// (quotes, backslashes, control bytes) falls back to the stdlib encoder for
// exact compatibility.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a float in the shortest round-trippable form.
// Estimates are clamped to [0, 1], so the JSON-invalid NaN/Inf forms cannot
// occur.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendJSON appends the hit as {"id":..,"estimate":..[,"tokens":[..]]} —
// the same shape the struct tags produce through encoding/json.
func (h Hit) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(h.ID), 10)
	b = append(b, `,"estimate":`...)
	b = appendFloat(b, h.Estimate)
	if len(h.Tokens) > 0 {
		b = append(b, `,"tokens":[`...)
		for i, t := range h.Tokens {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, t)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// MarshalJSON keeps Hit compatible with reflective encoders (tests, client
// code embedding Hit in their own envelopes).
func (h Hit) MarshalJSON() ([]byte, error) {
	return h.appendJSON(make([]byte, 0, 48)), nil
}

func appendHitsJSON(b []byte, hits []Hit) []byte {
	b = append(b, '[')
	for i := range hits {
		if i > 0 {
			b = append(b, ',')
		}
		b = hits[i].appendJSON(b)
	}
	return append(b, ']')
}

// appendSearchResponse appends the /search envelope {"count":N,"hits":[..]}.
func appendSearchResponse(b []byte, total int, hits []Hit) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"hits":`...)
	b = appendHitsJSON(b, hits)
	return append(b, '}')
}

// appendTopKResponse appends the /topk envelope {"hits":[..]}.
func appendTopKResponse(b []byte, hits []Hit) []byte {
	b = append(b, `{"hits":`...)
	b = appendHitsJSON(b, hits)
	return append(b, '}')
}

// appendBatchResponse appends the batch envelope
// {"results":[{...},...]}, one slot per query in input order: search slots
// are {"count":N,"hits":[..]}, top-k slots {"hits":[..]}, failed slots
// {"error":"..."}.
func appendBatchResponse(b []byte, results []BatchResult, withCount bool) []byte {
	b = append(b, `{"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		r := &results[i]
		if r.Err != nil {
			b = append(b, `{"error":`...)
			b = appendJSONString(b, r.Err.Error())
			b = append(b, '}')
			continue
		}
		if withCount {
			b = appendSearchResponse(b, r.Total, r.Hits)
		} else {
			b = appendTopKResponse(b, r.Hits)
		}
	}
	return append(b, `]}`...)
}

// encState is the pooled encoder of the cold (reflective) writeJSON path.
type encState struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encState{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

func writeJSON(w http.ResponseWriter, status int, v any) {
	e := encPool.Get().(*encState)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// Nothing reached the client yet; report the encoding failure.
		encPool.Put(e)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, e.buf.Bytes())
	encPool.Put(e)
}
