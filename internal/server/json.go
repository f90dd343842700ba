package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"gbkmv"
)

// The hot read-path responses (search, topk and their batch forms) are
// encoded by hand into pooled byte buffers: no map[string]any envelope, no
// reflection, no per-request encoder state. A steady-state cache-hit search
// therefore does O(result) work end to end: no tokenize, no search. The cold
// paths (stats, errors, build responses) keep the reflective encoder, but
// share the same buffer pool so even they allocate no response buffer per
// request.

// respScratch is the pooled per-request state of the read path: the cache
// key, the query's tokens, the buffer the engine appends its scored results
// to (or a cached answer is unpacked into), the []Hit they are materialized
// into and the response's bytes.
type respScratch struct {
	key    []byte
	query  queryTokens
	scored []gbkmv.Scored
	hits   []Hit
	b      []byte
}

var respPool = sync.Pool{New: func() any { return new(respScratch) }}

func getResp() *respScratch { return respPool.Get().(*respScratch) }

func putResp(sc *respScratch) {
	// A query's tokens are bounded by the body alone: what an outsized one
	// grew is dropped under the scanner's keep rule, not pooled.
	if cap(sc.query.slab) > scanKeepBytes || cap(sc.query.spans) > scanKeepBytes/16 || cap(sc.query.ends) > scanKeepBytes/8 {
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
// (quotes, backslashes, control bytes) goes through appendQuoted.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' {
			return appendQuoted(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendQuoted appends src as the JSON string literal json.Marshal writes for
// it, byte for byte — the two-character escapes it has, \u00XX for the other
// control characters and <, > and &, \u2028 and \u2029 escaped, \ufffd for
// each byte that is not UTF-8. The journal's frames are made of it
// (FuzzFrameEncode holds it to encoding/json).
func appendQuoted[S []byte | string](dst []byte, src S) []byte {
	const hex = "0123456789abcdef"
	const escaped uint64 = 1<<'"' | 1<<'&' | 1<<'<' | 1<<'>' // below 64; the backslash is above
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if c := src[i]; c >= ' ' && c < utf8.RuneSelf && c != '\\' && (c >= 64 || escaped>>c&1 == 0) {
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(string(src[i:min(len(src), i+utf8.UTFMax)]))
		i += size
		if c >= utf8.RuneSelf && c != '\u2028' && c != '\u2029' && (c != utf8.RuneError || size > 1) {
			continue
		}
		dst = append(dst, src[start:i-size]...)
		start = i
		switch {
		case c == '\\' || c == '"':
			dst = append(dst, '\\', byte(c))
		case c == '\b' || c == '\t' || c == '\n' || c == '\f' || c == '\r':
			dst = append(dst, '\\', "btn.fr"[c-'\b'])
		case c == utf8.RuneError:
			dst = append(dst, `\ufffd`...)
		default:
			dst = append(dst, '\\', 'u', hex[c>>12], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		}
	}
	return append(append(dst, src[start:]...), '"')
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

// appendIDsResponse appends an insert's acknowledgement: {"ids":[..]}, newline.
func appendIDsResponse(b []byte, ids []int) []byte {
	b = append(b, `{"ids":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, "]}\n"...)
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
