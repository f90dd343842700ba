package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"time"
)

// rawConn is a minimal HTTP/1.1 keep-alive client: whole requests are
// pre-built byte slices, responses are read into a reused buffer. The
// harness shares two cores with the program it measures, so what it spends
// per request is kept far below what net/http's transport would.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 32<<10)}, nil
}

func (rc *rawConn) close() { rc.c.Close() }

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
)

// do sends one request and reads its response. The returned body is valid
// until the next call.
func (rc *rawConn) do(req []byte) (status int, body []byte, err error) {
	rc.c.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err = rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = rc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		lower := bytes.ToLower(bytes.TrimSpace(line))
		if v, ok := bytes.CutPrefix(lower, hdrContentLength); ok {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, err
			}
		} else if bytes.Equal(lower, hdrChunked) {
			chunked = true
		}
	}
	rc.body = rc.body[:0]
	switch {
	case chunked:
		for {
			line, err = rc.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, err
			}
			if err = rc.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			rc.body = rc.body[:len(rc.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err = rc.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response has neither Content-Length nor chunked encoding")
	}
	return status, rc.body, nil
}

func (rc *rawConn) readBody(n int) error {
	at := len(rc.body)
	if cap(rc.body) < at+n {
		rc.body = append(make([]byte, 0, 2*(at+n)), rc.body...)
	}
	rc.body = rc.body[:at+n]
	_, err := io.ReadFull(rc.br, rc.body[at:])
	return err
}

// buildRequest frames a JSON body as a complete HTTP/1.1 request.
func buildRequest(method, path string, body []byte) []byte {
	b := make([]byte, 0, len(body)+128)
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// requests holds every measured request of a run, marshalled before the
// clock starts.
type requests struct {
	search   [][]byte // by pool index
	topk     [][]byte
	accuracy [][]byte // in.acc, unlimited, at accThreshold
	insert   map[int32][]byte
	snapshot []byte
	healthz  []byte
}

func searchBody(q []uint32, threshold float64, limit int) []byte {
	b := append([]byte(nil), `{"query":`...)
	b = appendTokens(b, q)
	b = append(b, `,"threshold":`...)
	b = strconv.AppendFloat(b, threshold, 'g', -1, 64)
	if limit > 0 {
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(limit), 10)
	}
	return append(b, '}')
}

func topkBody(q []uint32, k int) []byte {
	b := append([]byte(nil), `{"query":`...)
	b = appendTokens(b, q)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	return append(b, '}')
}

func recordsBody(recs [][]uint32, tail string) []byte {
	n := 32 + len(tail)
	for _, r := range recs {
		n += 9*len(r) + 2
	}
	b := append(make([]byte, 0, n), `{"records":[`...)
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendTokens(b, r)
	}
	b = append(b, ']')
	b = append(b, tail...)
	return append(b, '}')
}

func buildRequests(w *spec, in *inputs) *requests {
	base := "/collections/" + collName
	rq := &requests{
		insert:   map[int32][]byte{},
		snapshot: buildRequest("POST", base+"/snapshot", nil),
		healthz:  buildRequest("GET", "/healthz", nil),
	}
	for _, q := range in.pool {
		rq.search = append(rq.search, buildRequest("POST", base+"/search", searchBody(q, w.threshold, w.limit)))
		rq.topk = append(rq.topk, buildRequest("POST", base+"/topk", topkBody(q, w.k)))
	}
	for _, q := range in.acc {
		rq.accuracy = append(rq.accuracy, buildRequest("POST", base+"/search", searchBody(q, accThreshold, 0)))
	}
	for _, sched := range [][]op{in.main, in.probe} {
		for _, o := range sched {
			if o.kind == opInsert {
				rq.insert[o.arg] = buildRequest("POST", base+"/records",
					recordsBody(in.inserts[o.arg:int(o.arg)+w.insertBatch], ""))
			}
		}
	}
	return rq
}

func (rq *requests) of(o op) []byte {
	switch o.kind {
	case opSearch:
		return rq.search[o.arg]
	case opTopK:
		return rq.topk[o.arg]
	case opInsert:
		return rq.insert[o.arg]
	default:
		return rq.snapshot
	}
}

// answer is a parsed search, top-k or insert response. sum is a checksum of
// every id and estimate, so two answers to the same query can be compared
// without keeping their bodies.
type answer struct {
	count int // "count" of a search; -1 when absent
	ids   []int32
	min   float64 // lowest estimate
	sum   uint64
	// ordered: ids strictly ascending (search) / estimates non-increasing (top-k)
	ascending, bestFirst bool
}

// parseAnswer reads {"count":N,"hits":[{"id":I,"estimate":E},...]},
// {"hits":[...]} or {"ids":[...]} by scanning; it accepts exactly the shapes
// the server emits and reports anything else as invalid.
func parseAnswer(b []byte, ids []int32) (a answer, ok bool) {
	a = answer{count: -1, ids: ids[:0], min: math.Inf(1), ascending: true, bestFirst: true}
	p := 0
	lit := func(s string) bool {
		if len(b)-p >= len(s) && string(b[p:p+len(s)]) == s {
			p += len(s)
			return true
		}
		return false
	}
	num := func() (int64, bool) {
		s := p
		for p < len(b) && (b[p] == '-' || (b[p] >= '0' && b[p] <= '9')) {
			p++
		}
		v, err := strconv.ParseInt(string(b[s:p]), 10, 64)
		return v, err == nil
	}
	if lit(`{"ids":[`) {
		for !lit("]") {
			lit(",")
			v, ok := num()
			if !ok {
				return a, false
			}
			a.ids = append(a.ids, int32(v))
		}
		return a, lit("}")
	}
	if lit(`{"count":`) {
		v, ok := num()
		if !ok || !lit(`,"hits":[`) {
			return a, false
		}
		a.count = int(v)
	} else if !lit(`{"hits":[`) {
		return a, false
	}
	prev := math.Inf(1)
	for !lit("]") {
		lit(",")
		if !lit(`{"id":`) {
			return a, false
		}
		id, ok := num()
		if !ok || !lit(`,"estimate":`) {
			return a, false
		}
		s := p
		for p < len(b) && b[p] != '}' {
			p++
		}
		est, err := strconv.ParseFloat(string(b[s:p]), 64)
		if err != nil || !lit("}") {
			return a, false
		}
		if n := len(a.ids); n > 0 && a.ids[n-1] >= int32(id) {
			a.ascending = false
		}
		if est > prev {
			a.bestFirst = false
		}
		prev = est
		a.min = math.Min(a.min, est)
		a.ids = append(a.ids, int32(id))
		a.sum = (a.sum ^ uint64(id) ^ math.Float64bits(est)) * 0x100000001B3
	}
	return a, lit("}") || lit("}\n")
}
