package server

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"

	"gbkmv"
	"gbkmv/internal/obs"
)

// queryCache is the per-collection prepared-query cache: a sharded LRU over
// prepared *gbkmv.Query values keyed by (collection query generation, the
// query's verbatim JSON bytes). Hashing a query into its signature is the
// dominant per-request cost for hot queries; the cache computes it once per
// (generation, query) and hands out cheap clones.
//
// Correctness rests on two invariants enforced by the Collection:
//
//   - The query generation (Collection.queryGen) is bumped inside the same
//     write-lock critical section that mutates the engine, and both lookups
//     and stores read it under the collection's read lock. A cached entry is
//     therefore only ever served against the *identical* engine state it was
//     prepared under; entries keyed by an older generation simply stop
//     matching and age out through the LRU (no scan, no explicit flush).
//   - The cached *gbkmv.Query instance is never used for a query: lookup
//     returns the shared instance, and callers Clone it (outside the shard
//     lock — safe because the shared instance is never mutated, and a
//     concurrent put of the same key swaps the entry's pointer rather than
//     mutating the old instance). All per-request mutable state (size
//     overrides, the threshold-tracking rebuild slot) lives in the clones.
//
// The key is the verbatim JSON bytes of the query array: a hot query repeats
// byte-identically, and a hit skips the per-token JSON decode and the
// sorting of the token set, not just the sketch. The token *set* still
// decides the sketch, so a permuted or duplicated-token spelling of a cached
// query gets the same answer — as a miss, from one more sketch. A second,
// canonical key space that caught such spellings served 23 of 36 500 hits on
// the serve-read benchmark workload and 7–9 of 8 000 on serve-mixed (counted
// at PR 24), and went.
type queryCache struct {
	shards []qcShard
	// The counters are the collection's registry children.
	hits, misses, evictions *obs.Counter
}

// maxKeyBytes bounds what enters the cache at all: a longer query is
// prepared uncached. The cache capacity counts entries, not bytes, and both
// the key and the cached prepared query retain O(|Q|) state — without this
// bound an unauthenticated client posting distinct multi-megabyte queries
// could pin entries × |Q| memory per collection.
const maxKeyBytes = 4096

// qcShards is the shard count (power of two). Per-collection caches see at
// most one HTTP handler per in-flight request, so a small constant keeps the
// lock spread wide enough without bloating empty caches.
const qcShards = 8

type qcShard struct {
	mu  sync.Mutex
	cap int // max entries in this shard (≥ 1)
	m   map[string]*list.Element
	lru list.List // front = most recently used
}

// qcEntry is one cached prepared query. A gen older than the collection's
// current query generation makes the entry dead: lookups miss it and the
// next put for the same key overwrites it in place.
type qcEntry struct {
	key string
	gen uint64
	pq  *gbkmv.Query
}

// newQueryCache returns a cache holding up to capacity entries in total,
// counting into the caller's counters, or nil when capacity <= 0 (caching
// disabled).
func newQueryCache(capacity int, hits, misses, evictions *obs.Counter) *queryCache {
	if capacity <= 0 {
		return nil
	}
	qc := &queryCache{shards: make([]qcShard, qcShards),
		hits: hits, misses: misses, evictions: evictions}
	per := (capacity + qcShards - 1) / qcShards
	if per < 1 {
		per = 1
	}
	for i := range qc.shards {
		qc.shards[i].cap = per
		qc.shards[i].m = make(map[string]*list.Element)
	}
	return qc
}

// queryTokens holds the pooled buffers of one request's query tokens, which
// stay bytes from the body to the vocabulary: slab holds them unescaped and
// back to back, ends says where each one ends in the query's order, spans
// where each one lies.
type queryTokens struct {
	slab  []byte
	ends  []int
	spans []tokSpan
	elems []gbkmv.Element
	lex   bodyScanner // readTokens' scanner; holds no window of its own
}

// tokSpan is one token: slab[lo:hi].
type tokSpan struct{ lo, hi int }

// tokenize reads a query into the scratch and returns how many tokens it has.
// Afterwards spans holds the query's token set: distinct tokens, sorted.
func (sc *queryTokens) tokenize(raw []byte) (n int, err error) {
	if err := sc.readTokens(raw); err != nil {
		return 0, err
	}
	n = len(sc.spans)
	slab := sc.slab
	token := func(s tokSpan) []byte { return slab[s.lo:s.hi] }
	slices.SortFunc(sc.spans, func(a, b tokSpan) int { return bytes.Compare(token(a), token(b)) })
	sc.spans = slices.CompactFunc(sc.spans, func(a, b tokSpan) bool { return bytes.Equal(token(a), token(b)) })
	return n, nil
}

// readTokens reads a query — the JSON of an array of strings as a request
// carried it, or null — into slab and spans, in the query's order: the body
// scanner's own token walk, over the bytes in place of a window. It reads
// what json.Unmarshal into a []string reads (a null token is "", invalid
// UTF-8 becomes U+FFFD) and refuses what that refuses — in that function's
// words where the query is JSON of another shape or missing, which is all a
// request can come to: the scanner has held the bytes to the grammar.
func (sc *queryTokens) readTokens(raw []byte) error {
	sc.slab, sc.ends, sc.spans = sc.slab[:0], sc.ends[:0], sc.spans[:0]
	s := &sc.lex
	s.over(raw)
	c, err := s.next()
	switch {
	case err != nil:
		err = errors.New("unexpected end of JSON input")
	case c != '[' && c != 'n' && jsonKind(c) != "":
		err = unmarshalTypeErr(c, "[]string")
	default:
		err = s.tokens("the query", func(tok []byte) {
			sc.slab = append(sc.slab, tok...)
			sc.ends = append(sc.ends, len(sc.slab))
			sc.spans = append(sc.spans, tokSpan{len(sc.slab) - len(tok), len(sc.slab)})
		})
		var elem notAToken
		if errors.As(err, &elem) && jsonKind(byte(elem)) != "" {
			err = unmarshalTypeErr(byte(elem), "string")
		}
		if err == nil {
			if c, end := s.next(); end == nil { // nothing may follow the array
				err = syntaxErr(c, "after the query")
			}
		}
	}
	s.buf = nil
	if err != nil {
		return fmt.Errorf("query must be a JSON array of strings: %v", err)
	}
	return nil
}

// unmarshalTypeErr is json.Unmarshal's error for a value that starts with c
// where the Go type into is wanted.
func unmarshalTypeErr(c byte, into string) error {
	return errors.New("json: cannot unmarshal " + jsonKind(c) + " into Go value of type " + into)
}

// jsonKind names the type of the JSON value that starts with c, as
// encoding/json's errors do, or is "" where none does.
func jsonKind(c byte) string {
	switch {
	case c == '"':
		return "string"
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == 't' || c == 'f':
		return "bool"
	case c == '-' || isDigit(c):
		return "number"
	}
	return ""
}

// prepare prepares the tokenized query against the index: its tokens go
// through the vocabulary as bytes, without interning and under one read lock,
// and the query is prepared from their elements with |Q| = the distinct
// tokens, known or not — unknown tokens cannot match a record but still
// belong to Q (see gbkmv.PrepareTokens).
func (sc *queryTokens) prepare(ix *gbkmv.Index, voc *gbkmv.Vocabulary) (*gbkmv.Query, error) {
	if len(sc.spans) == 0 {
		return nil, gbkmv.ErrEmptyQuery
	}
	sc.elems = voc.AppendKnown(sc.elems[:0], sc.slab, 0, sc.ends)
	// A repeated token repeats its id. The prepared query keeps its record,
	// so it gets one of its own.
	slices.Sort(sc.elems)
	rec := gbkmv.Record(slices.Clone(slices.Compact(sc.elems)))
	return ix.Prepare(rec).WithSize(len(sc.spans)), nil
}

// shardFor selects a shard by FNV-1a over the key.
func (qc *queryCache) shardFor(key []byte) *qcShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return &qc.shards[h&(qcShards-1)]
}

// lookup returns the shared cached prepared query for (gen, key), if
// present and current. The map lookup uses the key bytes in place (no string
// allocation on the hit path). Counting is the caller's job. The returned
// instance is shared: callers Clone it (read-only), never use it for a query
// directly.
func (qc *queryCache) lookup(gen uint64, key []byte) (*gbkmv.Query, bool) {
	sh := qc.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.m[string(key)]
	if !ok || el.Value.(*qcEntry).gen != gen {
		sh.mu.Unlock()
		return nil, false
	}
	sh.lru.MoveToFront(el)
	pq := el.Value.(*qcEntry).pq
	sh.mu.Unlock()
	return pq, true
}

// put stores pq for (gen, key). pq must never again be used directly by the
// caller for queries (hand in the freshly prepared instance and query through
// a clone). An existing entry for the same key — current or stale — is
// overwritten in place, so dead generations never accumulate behind a hot
// key.
func (qc *queryCache) put(gen uint64, key []byte, pq *gbkmv.Query) {
	sh := qc.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.m[string(key)]; ok {
		e := el.Value.(*qcEntry)
		e.gen, e.pq = gen, pq
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	if sh.lru.Len() >= sh.cap {
		back := sh.lru.Back()
		delete(sh.m, back.Value.(*qcEntry).key)
		sh.lru.Remove(back)
		qc.evictions.Add(1)
	}
	k := string(key)
	sh.m[k] = sh.lru.PushFront(&qcEntry{key: k, gen: gen, pq: pq})
	sh.mu.Unlock()
}

// QueryCacheStats is the per-collection cache report surfaced in /stats.
type QueryCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// stats snapshots the counters. Entries takes each shard lock briefly.
func (qc *queryCache) stats() QueryCacheStats {
	return QueryCacheStats{
		Hits:      qc.hits.Value(),
		Misses:    qc.misses.Value(),
		Evictions: qc.evictions.Value(),
		Entries:   qc.entries(),
	}
}

// entries counts resident entries, taking each shard lock briefly.
func (qc *queryCache) entries() int {
	n := 0
	for i := range qc.shards {
		sh := &qc.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
