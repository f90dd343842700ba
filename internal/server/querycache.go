package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"gbkmv"
	"gbkmv/internal/obs"
)

// queryCache is the per-collection answer cache: a sharded LRU over the
// engine's answers — the total and the scored hits of one query under one
// querySpec — keyed by (collection query generation, the spec's answer-shaping
// fields, the query's verbatim JSON bytes). A hit skips everything between the
// body and the response's hits: the token decode, the sketch, the search and
// the scoring. What is left of a hit is materializing Hits from the records
// (with_tokens is therefore not part of the key) and encoding them.
//
// Correctness rests on two invariants enforced by the Collection:
//
//   - The query generation (Collection.queryGen) is bumped inside the same
//     write-lock critical section that mutates the engine, and both lookups
//     and stores read it under the collection's read lock. A cached answer is
//     therefore only ever served against the *identical* engine state it was
//     computed under; entries keyed by an older generation simply stop
//     matching and age out through the LRU (no scan, no explicit flush).
//   - A cached answer is immutable: put packs it into a slice of its own, and
//     an overwrite swaps the entry's slice rather than writing into the old
//     one, so lookup hands the slice out and callers unpack it outside the
//     shard lock.
//
// The key ends in the verbatim JSON bytes of the query array: a hot query
// repeats byte-identically. The token *set* still decides the answer, so a
// permuted or duplicated-token spelling of a cached query gets the same
// answer — as a miss, from one more search. A second, canonical key space
// that caught such spellings served 23 of 36 500 hits on the serve-read
// benchmark workload and 7–9 of 8 000 on serve-mixed, and went.
type queryCache struct {
	shards []qcShard
	// The counters are the collection's registry children.
	hits, misses, evictions *obs.Counter
	// bytes is the key and answer bytes of every resident entry, kept on put,
	// overwrite and evict.
	bytes atomic.Int64
}

// maxKeyBytes bounds what enters the cache at all: a longer key, or an
// answer whose packed form is longer, is not cached. The cache capacity
// counts entries, not bytes — without this bound an unauthenticated client
// posting distinct multi-megabyte queries, or queries with huge answers, could
// pin entries × that memory per collection.
const maxKeyBytes = 4096

// specKeyBytes is the length of a key's spec part: a kind byte and two
// 8-byte words (appendKey).
const specKeyBytes = 17

// qcShards is the shard count (power of two). Per-collection caches see at
// most one HTTP handler per in-flight request, so a small constant keeps the
// lock spread wide enough without bloating empty caches.
const qcShards = 8

type qcShard struct {
	mu  sync.Mutex
	cap int // max entries in this shard (≥ 1)
	m   map[string]*qcEntry
	// lru is the sentinel of the shard's recency ring: lru.next is the most
	// recently used entry, lru.prev the least. The ring is threaded through
	// the entries, so a miss allocates no list element.
	lru qcEntry
}

// qcEntry is one cached answer, packed (packAnswer). A gen older than the
// collection's current query generation makes the entry dead: lookups miss it
// and the next put for the same key overwrites it in place.
type qcEntry struct {
	key        string
	gen        uint64
	answer     []byte
	prev, next *qcEntry // the shard's recency ring
}

// unlink takes e out of its ring.
func (e *qcEntry) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

// toFront makes e the shard's most recently used entry.
func (sh *qcShard) toFront(e *qcEntry) {
	e.prev, e.next = &sh.lru, sh.lru.next
	e.prev.next, e.next.prev = e, e
}

// size is what the entry counts toward the cache's bytes.
func (e *qcEntry) size() int64 { return int64(len(e.key) + len(e.answer)) }

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
		sh := &qc.shards[i]
		sh.cap, sh.m = per, make(map[string]*qcEntry)
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	}
	return qc
}

// appendKey appends the cache key of raw under sp: what of sp shapes the
// engine's answer — a kind byte, then k for a top-k, the threshold's bits and
// limit for a search — followed by the query's verbatim bytes.
func (sp querySpec) appendKey(dst, raw []byte) []byte {
	a, b := uint64(sp.k), uint64(0)
	kind := byte('t')
	if !sp.topk {
		kind, a, b = 's', math.Float64bits(sp.threshold), uint64(sp.limit)
	}
	dst = binary.LittleEndian.AppendUint64(append(dst, kind), a)
	return append(binary.LittleEndian.AppendUint64(dst, b), raw...)
}

// packAnswer packs an answer into one exact allocation: the total as a
// uvarint, then each hit's id as a varint of its difference from the previous
// hit's id (a search's ids ascend, so most take two bytes) and its estimate's
// 8 bytes. It returns nil when that is longer than maxKeyBytes.
func packAnswer(total int, scored []gbkmv.Scored) []byte {
	n, prev := varintLen(uint64(total)), 0
	for _, s := range scored {
		n += varintLen(zigzag(s.ID-prev)) + 8
		prev = s.ID
	}
	if n > maxKeyBytes {
		return nil
	}
	b := binary.AppendUvarint(make([]byte, 0, n), uint64(total))
	prev = 0
	for _, s := range scored {
		b = binary.AppendVarint(b, int64(s.ID-prev))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Score))
		prev = s.ID
	}
	return b
}

// zigzag is the unsigned form binary.AppendVarint writes d in.
func zigzag(d int) uint64 { return uint64(d)<<1 ^ uint64(d>>63) }

// varintLen is the length of x as a uvarint.
func varintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// unpackAnswer appends a packed answer's hits to dst and returns its total.
func unpackAnswer(dst []gbkmv.Scored, answer []byte) ([]gbkmv.Scored, int) {
	total, n := binary.Uvarint(answer)
	id := 0
	for b := answer[n:]; len(b) > 0; b = b[n+8:] {
		var d int64
		d, n = binary.Varint(b)
		id += int(d)
		dst = append(dst, gbkmv.Scored{ID: id, Score: math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))})
	}
	return dst, int(total)
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
// belong to Q (see gbkmv.PrepareTokens). The query keeps the scratch's
// elements as its record: it lives no longer than the request.
func (sc *queryTokens) prepare(ix *gbkmv.Index, voc *gbkmv.Vocabulary) (*gbkmv.Query, error) {
	if len(sc.spans) == 0 {
		return nil, gbkmv.ErrEmptyQuery
	}
	sc.elems = voc.AppendKnown(sc.elems[:0], sc.slab, 0, sc.ends)
	slices.Sort(sc.elems) // a repeated token repeats its id
	sc.elems = slices.Compact(sc.elems)
	return ix.Prepare(gbkmv.Record(sc.elems)).WithSize(len(sc.spans)), nil
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

// lookup returns the packed answer cached for (gen, key), if present and
// current. The map lookup uses the key bytes in place (no string allocation
// on the hit path). Counting is the caller's job. The answer is shared and
// never written: callers unpack it.
func (qc *queryCache) lookup(gen uint64, key []byte) ([]byte, bool) {
	sh := qc.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	if !ok || e.gen != gen {
		sh.mu.Unlock()
		return nil, false
	}
	e.unlink()
	sh.toFront(e)
	answer := e.answer
	sh.mu.Unlock()
	return answer, true
}

// put caches the answer (total, scored) for (gen, key), unless its packed form
// is longer than maxKeyBytes. An existing entry for the same key — current or
// stale — is overwritten in place, so dead generations never accumulate
// behind a hot key.
func (qc *queryCache) put(gen uint64, key []byte, total int, scored []gbkmv.Scored) {
	answer := packAnswer(total, scored)
	if answer == nil {
		return
	}
	sh := qc.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[string(key)]; ok {
		qc.bytes.Add(int64(len(answer) - len(e.answer)))
		e.gen, e.answer = gen, answer
		e.unlink()
		sh.toFront(e)
		return
	}
	if len(sh.m) >= sh.cap {
		back := sh.lru.prev
		back.unlink()
		delete(sh.m, back.key)
		qc.bytes.Add(-back.size())
		qc.evictions.Add(1)
	}
	e := &qcEntry{key: string(key), gen: gen, answer: answer}
	sh.m[e.key] = e
	sh.toFront(e)
	qc.bytes.Add(e.size())
}

// QueryCacheStats is the per-collection cache report surfaced in /stats.
type QueryCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// Bytes is the key and answer bytes of the resident entries.
	Bytes int64 `json:"bytes"`
}

// stats snapshots the counters. Entries takes each shard lock briefly.
func (qc *queryCache) stats() QueryCacheStats {
	return QueryCacheStats{
		Hits:      qc.hits.Value(),
		Misses:    qc.misses.Value(),
		Evictions: qc.evictions.Value(),
		Entries:   qc.entries(),
		Bytes:     qc.bytes.Load(),
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
