package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The HTTP observability middleware wraps the whole mux. Its overhead budget
// is tight — the hot cache-hit search handler runs in ~14µs end to end and
// CI pins the instrumented path to within 5% of that — which drives two
// choices here:
//
//   - No context.WithValue, no request copy. The per-request trace state
//     rides on the pooled ResponseWriter wrapper (traceWriter); handlers
//     reach it with one type assertion.
//   - Route labels are read *after* the mux ran: Go's ServeMux sets
//     r.Pattern and the path values on the original request during routing,
//     so the middleware gets exact route patterns (never raw paths — the
//     label space stays bounded) without pre-parsing the URL.

// cache outcome codes for the slow-query log; 0 is a request that made no
// cacheable lookup (or recorded none).
const (
	cacheHit int8 = iota + 1
	cacheMiss
	cacheOff // the query was prepared uncached: caching disabled, or the query too large to key
)

// reqTrace is the per-request trace: handlers fill it while serving, the
// middleware reads it when booking metrics and deciding the slow-query log.
type reqTrace struct {
	isQuery bool // a search-shaped request (slow-log eligible)
	cache   int8 // prepared-query cache outcome
	engine  string
	tokens  int // query token count; -1 when the raw-bytes cache hit skipped decoding
	queries int // batch size (batch endpoints)
	stats   struct {
		candidates, pruned, estimated, bufferAccepts int
	}
}

// traceWriter is the pooled ResponseWriter wrapper: it captures the status
// code and carries the request's trace. It deliberately implements only the
// plain ResponseWriter surface — every response this API writes is a small
// buffered JSON body, so Flusher/Hijacker pass-through is not needed.
type traceWriter struct {
	http.ResponseWriter
	status int
	trace  reqTrace
}

func (tw *traceWriter) WriteHeader(code int) {
	if tw.status == 0 {
		tw.status = code
	}
	tw.ResponseWriter.WriteHeader(code)
}

func (tw *traceWriter) Write(b []byte) (int, error) {
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	return tw.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer (for
// per-request write deadlines) through the pooled wrapper.
func (tw *traceWriter) Unwrap() http.ResponseWriter { return tw.ResponseWriter }

var traceWriterPool = sync.Pool{New: func() any { return new(traceWriter) }}

// traceOf returns the request's trace when the middleware is in front (it
// always is under Handler; nil otherwise, e.g. direct handler tests).
func traceOf(w http.ResponseWriter) *reqTrace {
	if tw, ok := w.(*traceWriter); ok {
		return &tw.trace
	}
	return nil
}

// Request IDs: a per-process random prefix plus an atomic counter, so ids
// are unique across restarts without per-request entropy reads.
var (
	ridPrefix = func() string {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the clock; uniqueness across restarts is
			// best-effort, not a correctness property.
			return strconv.FormatInt(time.Now().UnixNano(), 36) + "-"
		}
		return hex.EncodeToString(b[:]) + "-"
	}()
	ridCounter atomic.Uint64
)

func nextRequestID() string {
	return ridPrefix + strconv.FormatUint(ridCounter.Add(1), 16)
}

// isReplTransfer reports whether the request is one of the deliberately
// long-running replication endpoints — the wal long-poll and the bootstrap
// file transfer — which the per-request deadline and write deadline must not
// cut short. Matched on the raw path (routing hasn't happened yet); the only
// GET routes ending in /wal or containing /repl/ are exactly those.
func isReplTransfer(r *http.Request) bool {
	if r.Method != http.MethodGet {
		return false
	}
	p := r.URL.Path
	return strings.HasSuffix(p, "/wal") || strings.Contains(p, "/repl/")
}

// withObservability wraps the routed mux with request metrics, the
// X-Request-Id echo, the graceful-degradation deadlines and the slow-query
// log.
func withObservability(s *Store, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = nextRequestID()
		}
		tw := traceWriterPool.Get().(*traceWriter)
		tw.ResponseWriter = w
		tw.status = 0
		tw.trace = reqTrace{}
		w.Header().Set("X-Request-Id", rid)
		// Graceful degradation: bound the request with a context deadline
		// (handlers shed with 503 once it passes) and the response with a
		// write deadline (a stuck reader can't pin the connection forever) —
		// except for the replication stream/transfer endpoints, which are
		// long-running by design. Both knobs default to off.
		var cancel context.CancelFunc
		if s.opt.RequestTimeout > 0 || s.opt.ResponseWriteTimeout > 0 {
			if !isReplTransfer(r) {
				if s.opt.ResponseWriteTimeout > 0 {
					// Errors (recorder writers in tests) mean no deadline
					// support; the request proceeds unbounded.
					_ = http.NewResponseController(tw).SetWriteDeadline(start.Add(s.opt.ResponseWriteTimeout))
				}
				if s.opt.RequestTimeout > 0 {
					var ctx context.Context
					ctx, cancel = context.WithTimeout(r.Context(), s.opt.RequestTimeout)
					r = r.WithContext(ctx)
				}
			}
		}
		next.ServeHTTP(tw, r)
		if cancel != nil {
			cancel()
		}
		d := time.Since(start)
		status := tw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: implicit 200
		}
		// The mux filled in the matched pattern and path values on r itself.
		pattern := r.Pattern
		if pattern == "" {
			pattern = "unmatched" // 404/405 fallthrough: one bounded label
		}
		s.metrics.endpoint(pattern, r.PathValue("name")).record(status, d)
		if s.opt.SlowQueryThreshold > 0 && tw.trace.isQuery && d >= s.opt.SlowQueryThreshold {
			s.logSlowQuery(rid, pattern, r.PathValue("name"), status, d, &tw.trace)
		}
		tw.ResponseWriter = nil // don't pin the connection's writer in the pool
		traceWriterPool.Put(tw)
	})
}

// logSlowQuery emits the structured slow-query line. One line, key=value,
// stable field order — greppable and machine-parseable without a log schema.
func (s *Store) logSlowQuery(rid, pattern, coll string, status int, d time.Duration, tr *reqTrace) {
	cache := "-"
	switch tr.cache {
	case cacheHit:
		cache = "hit"
	case cacheMiss:
		cache = "miss"
	case cacheOff:
		cache = "off"
	}
	s.logf("gbkmvd: slow-query trace_id=%s endpoint=%q collection=%s engine=%s tokens=%d queries=%d candidates=%d pruned=%d estimated=%d buffer_accepts=%d cache=%s status=%d duration=%s",
		rid, pattern, coll, tr.engine, tr.tokens, tr.queries,
		tr.stats.candidates, tr.stats.pruned, tr.stats.estimated, tr.stats.bufferAccepts,
		cache, status, d)
}
