package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"gbkmv"
)

// Collection is one named index: the vocabulary, the GB-KMV index and the
// answer cache behind mu, the index RWMutex — searches take the read
// lock and run concurrently, applyBatch takes the write lock. What makes it
// durable belongs to two other types, each the only code touching its own
// state: wal (the journal and the commit protocol that calls applyBatch) and
// generations (the files). A Collection is always assembled by its Store
// (newCollection), so its store, metrics and filesystem are never nil.
type Collection struct {
	name    string
	store   *Store       // owning store: logging, disk-error and quarantine accounting
	metrics *collMetrics // resolved per-collection metric children

	// readOnly flips on ENOSPC/EIO-class write failures and back when the
	// storage probe sees the disk heal (see integrity.go).
	readOnly atomic.Bool
	roReason atomic.Value // string

	wal      wal
	gens     generations
	applying recordSlab // applyBatch's records

	mu     sync.RWMutex
	voc    *gbkmv.Vocabulary
	eng    *gbkmv.Index
	qcache *queryCache // answer cache; nil when disabled

	// queryGen is the query generation: the cache key epoch of the engine's
	// in-memory state, bumped inside the write-lock critical section of every
	// engine mutation (applyBatch). It is deliberately distinct from the
	// on-disk snapshot generation: a snapshot changes no query result and
	// must not blow the cache, while an insert changes results without
	// touching the generation. Build and reload invalidate by construction —
	// they install a fresh Collection with an empty cache.
	queryGen atomic.Uint64
}

// newCollection assembles a collection of this store around an engine and
// the vocabulary it was interned through: metric children resolved once,
// the query cache created around the registry's counters, and the wal and
// the generations bound — once — to the collection's apply and disk-error
// hooks. dir is its directory, "" in a memory-only store. It has no journal
// and no generation yet: a build's first snapshot or Store.adopt supplies
// them.
func (s *Store) newCollection(name, dir string, voc *gbkmv.Vocabulary, eng *gbkmv.Index) *Collection {
	m := s.metrics.collMetricsFor(name)
	c := &Collection{name: name, store: s, metrics: m, voc: voc, eng: eng,
		qcache: newQueryCache(s.cacheCap, m.qcHits, m.qcMisses, m.qcEvictions)}
	c.wal.init(name, dir != "", m, c.applyBatch, c.noteDiskError)
	c.gens.init(dir, s.fs, c.noteDiskError)
	return c
}

// Hit is one search result.
type Hit struct {
	ID       int      `json:"id"`
	Estimate float64  `json:"estimate"`
	Tokens   []string `json:"tokens,omitempty"`
}

// resolve returns the engine's answer to a request's verbatim query JSON
// under sp: the scored hits, in rs.scored, and the total. The query bytes
// after sp's answer-shaping fields are the cache key, so a repeated query
// skips the per-token JSON decode, the sorting of its token set, the sketch,
// the search and the scoring. On a miss the tokens are read once, as bytes
// into rs, the query is prepared into rs too, and its answer is cached for
// the next byte-identical request. Caller must hold at least the read lock
// (which is what makes the generation read exact: writers bump queryGen under
// the write lock, so a cache hit is always against the engine state it was
// computed under). tr, when non-nil, receives the cache outcome, the token
// count (-1 when a hit skipped decoding) and the search's work counters.
func (c *Collection) resolve(rs *respScratch, raw []byte, sp querySpec, tr *reqTrace) (scored []gbkmv.Scored, total int, err error) {
	gen := c.queryGen.Load()
	var key []byte
	if c.qcache != nil && len(raw) <= maxKeyBytes-specKeyBytes {
		rs.key = sp.appendKey(rs.key[:0], raw)
		key = rs.key
		if answer, ok := c.qcache.lookup(gen, key); ok {
			c.qcache.hits.Add(1)
			if tr != nil {
				tr.tokens = -1 // tokens were never decoded
				tr.cache = cacheHit
			}
			rs.scored, total = unpackAnswer(rs.scored[:0], answer)
			return rs.scored, total, nil
		}
	}
	tokens, err := rs.query.tokenize(raw)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		tr.tokens = tokens
		tr.cache = cacheOff
	}
	if key != nil {
		c.qcache.misses.Add(1)
		if tr != nil {
			tr.cache = cacheMiss
		}
	}
	q, err := rs.query.prepare(c.eng, c.voc)
	if err != nil {
		return nil, 0, err
	}
	rs.scored, total = sp.run(q, rs.scored[:0])
	c.noteSearch(q, tr)
	if key != nil {
		c.qcache.put(gen, key, total, rs.scored)
	}
	return rs.scored, total, nil
}

// appendHits materializes scored results as Hits into dst (callers pass a
// pooled buffer). Caller holds the read lock.
func (c *Collection) appendHits(dst []Hit, scored []gbkmv.Scored, withTokens bool) []Hit {
	for _, s := range scored {
		h := Hit{ID: s.ID, Estimate: s.Score}
		if withTokens {
			h.Tokens = c.voc.Tokens(c.eng.Record(s.ID))
		}
		dst = append(dst, h)
	}
	return dst
}

// SearchRaw returns records with estimated containment ≥ threshold, scored, in
// ascending id order, together with the total number of qualifying records,
// appending the materialized hits to dst (pass nil, or a pooled buffer, to
// bound steady-state allocation). limit > 0 caps the hits that are scored
// and materialized — a threshold-0 query against a large collection must not
// pay O(N) estimates and token slices for a page of 10. Each returned hit is
// estimated exactly once: the engine's scored search reports the estimate
// that decided membership during the candidate walk.
//
// The query is its verbatim request JSON (an array of token strings), which
// lets a repeated query resolve through the exact-bytes cache key without
// decoding tokens or searching at all. tr, when non-nil, receives the request
// trace (cache outcome, per-search work counters).
func (c *Collection) SearchRaw(rawQuery []byte, threshold float64, limit int, withTokens bool, dst []Hit, tr *reqTrace) (hits []Hit, total int, err error) {
	rs := getResp()
	defer putResp(rs)
	return c.answer(rs, rawQuery, querySpec{threshold: threshold, limit: limit, withTokens: withTokens}, dst, tr)
}

// TopKRaw returns the k best records by estimated containment, best first,
// appending to dst and taking the query as SearchRaw does.
func (c *Collection) TopKRaw(rawQuery []byte, k int, withTokens bool, dst []Hit, tr *reqTrace) ([]Hit, error) {
	rs := getResp()
	defer putResp(rs)
	hits, _, err := c.answer(rs, rawQuery, querySpec{topk: true, k: k, withTokens: withTokens}, dst, tr)
	return hits, err
}

// answer is the body of SearchRaw and TopKRaw, working in the caller's
// scratch: the key, the query's tokens and the engine's scored results live
// in rs, so a steady-state cache hit allocates nothing between its body and
// its response.
func (c *Collection) answer(rs *respScratch, rawQuery []byte, sp querySpec, dst []Hit, tr *reqTrace) (hits []Hit, total int, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	scored, total, err := c.resolve(rs, rawQuery, sp, tr)
	if err != nil {
		return nil, 0, err
	}
	return c.appendHits(dst, scored, sp.withTokens), total, nil
}

// run answers the request on a prepared query, appending to dst.
// total counts every qualifying record of a threshold search, and is 0 for a
// top-k.
func (sp querySpec) run(q *gbkmv.Query, dst []gbkmv.Scored) (scored []gbkmv.Scored, total int) {
	if sp.topk {
		return q.AppendTopK(dst, sp.k), 0
	}
	return q.AppendSearchScored(dst, sp.threshold, sp.limit)
}

// noteSearch books a finished search's work counters into the collection's
// metrics and, when tr is non-nil, the request trace. q is the query the
// search just ran on, private to the request.
func (c *Collection) noteSearch(q *gbkmv.Query, tr *reqTrace) {
	st := q.QueryStats()
	c.metrics.candidates.Observe(float64(st.Candidates))
	c.metrics.candTotal.Add(uint64(st.Candidates))
	c.metrics.pruned.Add(uint64(st.PrunedByBound))
	c.metrics.estimated.Add(uint64(st.Estimated))
	c.metrics.bufAccepts.Add(uint64(st.BufferAccepts))
	if tr != nil {
		tr.stats.candidates = st.Candidates
		tr.stats.pruned = st.PrunedByBound
		tr.stats.estimated = st.Estimated
		tr.stats.bufferAccepts = st.BufferAccepts
	}
}

// BatchResult is one query's slot in a batch search or top-k response: its
// hits, the total qualifying count (searches only), or the per-query error.
// Queries are independent — one empty query fails its slot, not the batch.
type BatchResult struct {
	Hits  []Hit
	Total int
	Err   error
}

// batchSlot is one *distinct* query of a batch: duplicates within the batch
// share a slot, so each distinct query's answer is resolved (through the
// cache, or by a search) exactly once — lazily, by whichever worker reaches
// it first, so a cold batch's searches parallelize instead of running
// serially before the fan-out.
type batchSlot struct {
	raw    []byte
	once   sync.Once
	scored []gbkmv.Scored
	total  int
	err    error
}

// resolved resolves the slot's answer on first use (a search is a read: the
// index allows concurrent queries, exactly as the core SearchBatch's workers
// run them) in the calling worker's scratch, and keeps a copy of it.
// Duplicate queries block on the first worker's resolve and then share the
// answer.
func (s *batchSlot) resolved(c *Collection, rs *respScratch, sp querySpec) ([]gbkmv.Scored, int, error) {
	// No trace here: slots are resolved by racing workers, and the batch
	// trace is aggregated at the request level, not per slot.
	s.once.Do(func() {
		var scored []gbkmv.Scored
		scored, s.total, s.err = c.resolve(rs, s.raw, sp, nil)
		s.scored = slices.Clone(scored)
	})
	return s.scored, s.total, s.err
}

// dedupBatch groups the batch into distinct-query slots (detected on the
// verbatim query bytes, as the cache does) and maps every batch position to
// its slot.
func dedupBatch(queries [][]byte) ([]batchSlot, []int) {
	slots := make([]batchSlot, 0, len(queries))
	idx := make([]int, len(queries))
	seen := make(map[string]int, len(queries))
	for i, raw := range queries {
		if j, ok := seen[string(raw)]; ok {
			idx[i] = j
			continue
		}
		slots = append(slots, batchSlot{raw: raw})
		seen[string(raw)] = len(slots) - 1
		idx[i] = len(slots) - 1
	}
	return slots, idx
}

// runBatch fans the per-query work out across a bounded worker pool under
// the single read-lock acquisition the caller amortizes over the batch. The
// engine's pooled scratch machinery hands each in-flight query its own
// working memory.
func runBatch(n int, run func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// batch answers every query of a search:batch or topk:batch request — each
// the verbatim JSON of its token array, as SearchRaw takes it — under one
// read-lock acquisition: the batch fans out across a bounded worker pool, and
// each distinct query's answer is resolved once (through the cache when
// enabled).
// Results are in input order. A ctx deadline passing mid-batch fails the
// remaining slots (each carries the context error) instead of running the
// batch to completion against a client that already gave up; a nil ctx never
// expires.
func (c *Collection) batch(ctx context.Context, queries [][]byte, sp querySpec) []BatchResult {
	out := make([]BatchResult, len(queries))
	c.metrics.batchSize.Observe(float64(len(queries)))
	c.mu.RLock()
	defer c.mu.RUnlock()
	slots, idx := dedupBatch(queries)
	runBatch(len(queries), func(i int) {
		if ctx != nil && ctx.Err() != nil {
			out[i].Err = ctx.Err()
			return
		}
		rs := getResp()
		defer putResp(rs)
		scored, total, err := slots[idx[i]].resolved(c, rs, sp)
		if err != nil {
			out[i].Err = err
			return
		}
		out[i].Total = total
		out[i].Hits = c.appendHits(make([]Hit, 0, len(scored)), scored, sp.withTokens)
	})
	return out
}

// Insert adds a batch of records dynamically. On a persistent store the
// batch goes through the wal's group commit (wal.insert): no call returns,
// and no search can observe its records, before its journal frames are
// fsynced, and ids are assigned in journal order — exactly what replay
// reproduces. A non-empty requestID makes a retry of the same insert answer
// ErrDuplicateRequest with the originally assigned ids. Returns the new
// record ids in batch order.
//
// Tokens and request id are taken as a frame holds them and as HTTP delivers
// them: each byte that is not UTF-8 is read as U+FFFD.
func (c *Collection) Insert(batch [][]string, requestID string) ([]int, error) {
	sc := getScanner(nil)
	defer putScanner(sc)
	sc.tokenBatch.reset()
	for _, tokens := range batch {
		for _, tok := range tokens {
			sc.slab = appendCoerced(sc.slab, tok)
			sc.tokEnds = append(sc.tokEnds, len(sc.slab))
		}
		sc.endRecord()
	}
	if !utf8.ValidString(requestID) {
		requestID = string(appendCoerced(nil, requestID))
	}
	return c.insert(sc, requestID)
}

// insert is the one write path, for records a scanner holds; the caller
// keeps sc until it returns.
func (c *Collection) insert(sc *bodyScanner, requestID string) ([]int, error) {
	// Validate before touching the vocabulary or the journal: a rejected
	// batch must leave no trace. (A record is empty iff it has no tokens —
	// every token interns to an element.) An empty batch is rejected too:
	// it has no ids to acknowledge or remember.
	if len(sc.recEnds) == 0 {
		return nil, errors.New("empty batch")
	}
	for i := range sc.recEnds {
		if from, to := sc.span(i); from == to {
			return nil, fmt.Errorf("record %d is empty", i)
		}
	}
	return c.wal.insert(&commitBatch{toks: &sc.tokenBatch, to: len(sc.recEnds), rid: requestID}, &sc.frames)
}

// applyBatch interns and applies one batch: the wal's apply hook, called in
// journal order and one call at a time (hence the one slab). The engine
// mutation takes the write lock; searches block only for this in-memory
// apply, never for I/O.
func (c *Collection) applyBatch(b *commitBatch) {
	c.applying.reset()
	for i := b.from; i < b.to; i++ {
		c.applying.add(c.voc, b.toks, i)
	}
	c.mu.Lock()
	b.ids = c.eng.AddBatch(c.applying.recs)
	// Bump the query generation before the new records become visible (the
	// write lock is still held): searches load the generation under the read
	// lock, so no cached pre-insert answer can ever be served post-insert.
	c.queryGen.Add(1)
	c.mu.Unlock()
}

// snapshot persists the current state as the next generation and, once that
// is committed, hands the wal its empty journal. committed reports whether
// the commit landed: a post-commit error (the directory fsync) leaves the new
// generation visible on disk and memory already following it, which callers
// must treat differently from a failed snapshot. The caller holds opMu and
// has the wal quiesced, so nothing is applied while the engine is encoded;
// searches keep running throughout.
func (c *Collection) snapshot() (committed bool, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// The request window rides in the commit record: the snapshot subsumes
	// (and truncates) the journal that carried the ids, and the retry the
	// window exists for may arrive after both the snapshot and a restart.
	m := meta{Name: c.name, Engine: c.eng.EngineName(), Records: c.eng.Len(), Requests: c.wal.window()}
	snap, err := c.gens.snapshot(m, func(w io.Writer) error { return gbkmv.SaveEngine(w, c.eng) }, c.voc.Save)
	if snap == nil {
		return false, err
	}
	// The write pause: inserts waited, the wal quiesced, for the whole index
	// encode.
	c.metrics.snapPause.Observe(snap.index.Seconds())
	c.wal.swap(snap.log, snap.gen)
	c.store.logf("gbkmvd: snapshot %q gen %d: index %d bytes, vocab %d bytes, encode %s, fsync %s",
		c.name, snap.gen, snap.sums["index"].Size, snap.sums["vocab"].Size,
		snap.encode.Round(10*time.Microsecond), snap.fsync.Round(10*time.Microsecond))
	return true, err
}

// CollStats reports a collection's engine, sketch configuration, footprint
// and persistence state. engine is always "gbkmv"; num_hashes is always 0
// (omitted). size_bytes is the sketch alone; record_bytes (the retained
// records) and index_bytes (what search walks beside the sketch: inverted
// lists, bit columns, offset tables) are what the index holds around it;
// vocab_bytes is what the collection's vocabulary holds (token text, offsets,
// id table).
type CollStats struct {
	Name             string  `json:"name"`
	Engine           string  `json:"engine"`
	NumRecords       int     `json:"num_records"`
	BufferBits       int     `json:"buffer_bits"`
	Tau              float64 `json:"tau"`
	BudgetUnits      int     `json:"budget_units"`
	UsedUnits        int     `json:"used_units"`
	NumHashes        int     `json:"num_hashes,omitempty"`
	SizeBytes        int     `json:"size_bytes"`
	BufferBytes      int     `json:"buffer_bytes,omitempty"`
	SketchBytes      int     `json:"sketch_bytes,omitempty"`
	RecordBytes      int     `json:"record_bytes,omitempty"`
	IndexBytes       int     `json:"index_bytes,omitempty"`
	VocabSize        int     `json:"vocab_size"`
	VocabBytes       int     `json:"vocab_bytes"`
	Persistent       bool    `json:"persistent"`
	Generation       uint64  `json:"generation"`
	JournaledInserts int     `json:"journaled_inserts"`
	// WAL durability state: logical journal size (including buffered
	// not-yet-flushed bytes), the fsynced high-water mark, and how many
	// insert batches currently sit in the open commit group awaiting their
	// shared fsync. Zero/omitted for memory-only collections.
	WALOffsetBytes int64 `json:"wal_offset_bytes,omitempty"`
	WALSyncedBytes int64 `json:"wal_synced_bytes,omitempty"`
	OpenGroupDepth int   `json:"open_group_depth"`
	// QueryGeneration is the cache-key epoch of the engine's in-memory
	// state, bumped by every applied insert batch.
	QueryGeneration uint64 `json:"query_generation"`
	// QueryCache reports the answer cache's counters and bytes; nil (omitted)
	// when the cache is disabled.
	QueryCache *QueryCacheStats `json:"query_cache,omitempty"`
	// Role and Replication report the node's replication posture: Role is
	// "leader" (accepting writes; omitted on standalone memory-only stores)
	// or "follower", and Replication carries the follower's per-collection
	// stream state (nil on leaders). Filled by the stats handler, not by
	// Stats itself — the state lives with the store/follower, not the
	// collection.
	Role        string     `json:"role,omitempty"`
	Replication *ReplStats `json:"replication,omitempty"`

	// Storage is the collection's storage-integrity posture (read-only mode,
	// quarantined generation, recent quarantine events). Filled by the stats
	// handler — the quarantine event log lives with the store.
	Storage *StorageHealth `json:"storage,omitempty"`
}

// Stats returns the collection's current statistics.
func (c *Collection) Stats() CollStats {
	// Journal state first, then the index state under the read lock: taking
	// them disjointly respects the lock order and keeps stats from blocking
	// behind an in-flight commit's apply phase.
	w := c.wal.status()
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := c.eng.Stats()
	var qcs *QueryCacheStats
	if c.qcache != nil {
		s := c.qcache.stats()
		qcs = &s
	}
	return CollStats{
		Name:             c.name,
		Engine:           st.Engine,
		NumRecords:       st.NumRecords,
		BufferBits:       st.BufferBits,
		Tau:              st.Tau,
		BudgetUnits:      st.BudgetUnits,
		UsedUnits:        st.UsedUnits,
		NumHashes:        st.NumHashes,
		SizeBytes:        st.SizeBytes,
		BufferBytes:      st.BufferBytes,
		SketchBytes:      st.SketchBytes,
		RecordBytes:      st.RecordBytes,
		IndexBytes:       st.IndexBytes,
		VocabSize:        c.voc.Len(),
		VocabBytes:       c.voc.SizeBytes(),
		Persistent:       c.gens.persistent(),
		Generation:       w.gen,
		JournaledInserts: w.entries,
		WALOffsetBytes:   w.offset,
		WALSyncedBytes:   w.synced,
		OpenGroupDepth:   w.depth,
		QueryGeneration:  c.queryGen.Load(),
		QueryCache:       qcs,
	}
}
