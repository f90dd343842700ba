package server

import (
	"sync"
	"sync/atomic"
	"time"

	"gbkmv/internal/obs"
)

// Metrics is the store-wide metric surface behind GET /metrics. Families are
// registered once when the store opens; per-collection children are resolved
// once per collection (collMetrics) or once per endpoint×collection pair
// (endpointMetrics, cached in a sync.Map), so the hot request path does no
// label resolution — only pointer-chasing plus atomic adds.
//
// Label cardinality rule: the only free-form label is the collection name,
// which is operator-controlled (created by explicit PUT, validated against
// nameRE) and therefore bounded; HTTP endpoint labels are the fixed route
// patterns, and status codes are collapsed to their class.
type Metrics struct {
	reg *obs.Registry

	httpRequests *obs.CounterVec   // endpoint, collection, code (class)
	httpLatency  *obs.HistogramVec // endpoint, collection

	fsync      *obs.HistogramVec // collection
	groupSize  *obs.HistogramVec // collection
	walBytes   *obs.CounterVec   // collection
	walFrames  *obs.CounterVec   // collection
	rollbacks  *obs.CounterVec   // collection
	tornTails  *obs.CounterVec   // collection
	replaySecs *obs.GaugeVec     // collection

	qcHits      *obs.CounterVec // collection
	qcMisses    *obs.CounterVec // collection
	qcEvictions *obs.CounterVec // collection
	qcEntries   *obs.GaugeVec   // collection (scrape-time mirror)

	batchSize     *obs.HistogramVec // collection
	candidates    *obs.HistogramVec // collection
	candTotal     *obs.CounterVec   // collection
	prunedTotal   *obs.CounterVec   // collection
	estTotal      *obs.CounterVec   // collection
	bufferAccepts *obs.CounterVec   // collection

	// fencing counts stale-peer replication requests answered 410 Gone (the
	// promotion fencing protocol); shedLoad counts requests shed with 503
	// under overload, by reason.
	fencing  *obs.CounterVec // collection
	shedLoad *obs.CounterVec // reason

	collRecords *obs.GaugeVec // collection (scrape-time mirror)
	collGen     *obs.GaugeVec // collection: query generation
	// The snapshot pause histogram: one index encode a snapshot.
	snapPause   *obs.HistogramVec // collection
	journaled   *obs.GaugeVec     // collection: entries in the current journal
	walOffset   *obs.GaugeVec     // collection: journal logical size
	walSynced   *obs.GaugeVec     // collection: durable high-water mark
	hashedTotal *obs.CounterVec
	shrinkTotal *obs.CounterVec
	// buildStage times the three stages of a build request: decode (body
	// or record file to interned records), sketch (engine construction),
	// snapshot (Store.Create: the first generation's files).
	buildStage *obs.HistogramVec // stage
	// Sketch state (scrape-time mirror): the global threshold τ and used ÷
	// budget units.
	sketchTau  *obs.GaugeVec // collection
	budgetUtil *obs.GaugeVec // collection
	// Where a collection's bytes are (scrape-time mirror): the sketch (/stats
	// size_bytes), the retained records, what search walks beside the
	// sketch, the vocabulary and the answer cache.
	resident *obs.GaugeVec // collection, part

	// Storage-integrity families (see integrity.go): disk errors by write-path
	// op, snapshot verification failures by detection stage (load / scrub /
	// transfer), quarantined generations, scrub passes and failures, and the
	// per-collection read-only gauge mirrored at scrape time. lastScrubNano
	// backs the gbkmv_scrub_last_age_seconds gauge (-1 until the first pass).
	diskErrors    *obs.CounterVec // op
	verifyFails   *obs.CounterVec // collection, stage
	quarantines   *obs.CounterVec // collection
	scrubPasses   *obs.Counter
	scrubFails    *obs.Counter
	readOnlyG     *obs.GaugeVec // collection (scrape-time mirror)
	lastScrubNano atomic.Int64

	// endpoints caches endpointMetrics per (pattern, collection); reads are
	// the no-allocation sync.Map fast path.
	endpoints sync.Map // endpointKey → *endpointMetrics
}

type endpointKey struct {
	pattern    string
	collection string
}

// endpointMetrics is the resolved child set of one endpoint×collection pair.
type endpointMetrics struct {
	byClass [3]*obs.Counter // 2xx (and 1xx/3xx), 4xx, 5xx
	latency *obs.Histogram
}

// newMetrics registers every family on a fresh registry.
func newMetrics() *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{
		reg: r,
		httpRequests: r.CounterVec("gbkmv_http_requests_total",
			"HTTP requests served, by route pattern, collection and status class.",
			"endpoint", "collection", "code"),
		httpLatency: r.HistogramVec("gbkmv_http_request_seconds",
			"HTTP request latency, by route pattern and collection.",
			obs.LatencyBuckets, "endpoint", "collection"),
		fsync: r.HistogramVec("gbkmv_wal_fsync_seconds",
			"Journal fsync latency (one observation per commit group).",
			obs.LatencyBuckets, "collection"),
		groupSize: r.HistogramVec("gbkmv_wal_commit_group_size",
			"Insert batches sharing one journal fsync.",
			obs.CountBuckets, "collection"),
		walBytes: r.CounterVec("gbkmv_wal_appended_bytes_total",
			"Bytes appended to the journal.", "collection"),
		walFrames: r.CounterVec("gbkmv_wal_appended_frames_total",
			"Record frames appended to the journal.", "collection"),
		rollbacks: r.CounterVec("gbkmv_wal_rollbacks_total",
			"Journal rollbacks to the durable high-water mark after a failed commit.",
			"collection"),
		tornTails: r.CounterVec("gbkmv_wal_torn_tail_recoveries_total",
			"Torn journal tails truncated during startup replay.", "collection"),
		replaySecs: r.GaugeVec("gbkmv_wal_replay_seconds",
			"Duration of the startup journal replay.", "collection"),
		qcHits: r.CounterVec("gbkmv_query_cache_hits_total",
			"Answer cache hits: requests answered without a search.", "collection"),
		qcMisses: r.CounterVec("gbkmv_query_cache_misses_total",
			"Answer cache misses: engine searches of a cacheable query.", "collection"),
		qcEvictions: r.CounterVec("gbkmv_query_cache_evictions_total",
			"Answer cache LRU evictions.", "collection"),
		qcEntries: r.GaugeVec("gbkmv_query_cache_entries",
			"Answer cache entries currently resident.", "collection"),
		batchSize: r.HistogramVec("gbkmv_batch_queries",
			"Queries per batch request (search:batch, topk:batch).",
			obs.CountBuckets, "collection"),
		candidates: r.HistogramVec("gbkmv_search_candidates",
			"Candidate records generated per search.",
			obs.CountBuckets, "collection"),
		candTotal: r.CounterVec("gbkmv_search_candidates_total",
			"Candidate records generated by searches.", "collection"),
		prunedTotal: r.CounterVec("gbkmv_search_pruned_total",
			"Candidates dismissed by the upper-bound prune without an estimate.",
			"collection"),
		estTotal: r.CounterVec("gbkmv_search_estimated_total",
			"Sketch estimates computed by searches.", "collection"),
		bufferAccepts: r.CounterVec("gbkmv_search_buffer_accepts_total",
			"Hits settled by the exact frequent-element buffer alone.", "collection"),
		fencing: r.CounterVec("gbkmv_repl_fencing_rejections_total",
			"Stale-generation replication requests rejected with 410 Gone (fenced-off peers).",
			"collection"),
		shedLoad: r.CounterVec("gbkmv_shed_load_total",
			"Requests shed with 503 Service Unavailable under overload, by reason.",
			"reason"),
		collRecords: r.GaugeVec("gbkmv_collection_records",
			"Records in the collection.", "collection"),
		collGen: r.GaugeVec("gbkmv_collection_query_generation",
			"Query generation (bumped by every engine mutation; cache key epoch).",
			"collection"),
		snapPause: r.HistogramVec("gbkmv_snapshot_pause_seconds",
			"Time inserts wait on a snapshot: the encode and write of the whole index, "+
				"one observation per snapshot.",
			obs.LatencyBuckets, "collection"),
		journaled: r.GaugeVec("gbkmv_wal_entries",
			"Entries in the current journal (reset by snapshots).", "collection"),
		walOffset: r.GaugeVec("gbkmv_wal_offset_bytes",
			"Journal logical size, including buffered not-yet-flushed bytes.",
			"collection"),
		walSynced: r.GaugeVec("gbkmv_wal_synced_offset_bytes",
			"Journal durable high-water mark: every byte below it is fsynced.",
			"collection"),
		hashedTotal: r.CounterVec("gbkmv_build_elements_hashed_total",
			"Element hash computations by the write path; keys are re-hashed, not staged: in a build or a load "+
				"1 per non-buffered occurrence, 1 more if its key is kept (+2 per distinct element to select tau in a build); 1 in an insert.",
			"collection"),
		shrinkTotal: r.CounterVec("gbkmv_build_threshold_shrinks_total",
			"Fixed-budget threshold shrinks performed.", "collection"),
		buildStage: r.HistogramVec("gbkmv_build_stage_seconds",
			"Wall time of each stage of a successful build request: decode, sketch, snapshot.",
			obs.LatencyBuckets, "stage"),
		sketchTau: r.GaugeVec("gbkmv_sketch_tau",
			"Global hash threshold of the sketch; "+
				"falls as inserts shrink it to hold the budget.", "collection"),
		budgetUtil: r.GaugeVec("gbkmv_sketch_budget_utilisation",
			"Sketch units used divided by the budget; sits just under 1 at a full budget "+
				"(each threshold shrink frees a fixed slack).", "collection"),
		resident: r.GaugeVec("gbkmv_collection_resident_bytes",
			"Bytes a collection holds, by part: sketch (signatures: buffers and keys, the /stats size_bytes), "+
				"records (the retained records), index (inverted lists, bit columns, offset tables), "+
				"vocabulary (token text, offsets, id table: vocab_bytes), "+
				"query_cache (the answer cache's keys and answers: /stats query_cache.bytes).",
			"collection", "part"),
		diskErrors: r.CounterVec("gbkmv_disk_errors_total",
			"Write-path disk errors, by operation.", "op"),
		verifyFails: r.CounterVec("gbkmv_snapshot_verify_failures_total",
			"Snapshot checksum verification failures, by detection stage (load, scrub, transfer).",
			"collection", "stage"),
		quarantines: r.CounterVec("gbkmv_quarantined_generations_total",
			"Corrupt snapshot generations quarantined.", "collection"),
		scrubPasses: r.Counter("gbkmv_scrub_passes_total",
			"Completed background scrub passes."),
		scrubFails: r.Counter("gbkmv_scrub_failures_total",
			"Scrub passes that found a corrupt collection."),
		readOnlyG: r.GaugeVec("gbkmv_storage_read_only",
			"1 when the collection is in storage-degraded read-only mode.", "collection"),
	}
	r.GaugeFunc("gbkmv_scrub_last_age_seconds",
		"Seconds since the last completed scrub pass (-1 before the first).",
		func() float64 {
			ns := m.lastScrubNano.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
	obs.RegisterRuntimeMetrics(r)
	return m
}

// endpoint resolves (creating on first use) the child set of one
// endpoint×collection pair. The sync.Map load is the hot path.
func (m *Metrics) endpoint(pattern, collection string) *endpointMetrics {
	key := endpointKey{pattern: pattern, collection: collection}
	if em, ok := m.endpoints.Load(key); ok {
		return em.(*endpointMetrics)
	}
	em := &endpointMetrics{
		byClass: [3]*obs.Counter{
			m.httpRequests.With(pattern, collection, "2xx"),
			m.httpRequests.With(pattern, collection, "4xx"),
			m.httpRequests.With(pattern, collection, "5xx"),
		},
		latency: m.httpLatency.With(pattern, collection),
	}
	actual, _ := m.endpoints.LoadOrStore(key, em)
	return actual.(*endpointMetrics)
}

// record books one finished request.
func (em *endpointMetrics) record(status int, d time.Duration) {
	i := 0
	switch {
	case status >= 500:
		i = 2
	case status >= 400:
		i = 1
	}
	em.byClass[i].Inc()
	em.latency.Observe(d.Seconds())
}

// removeCollection ends every series labeled with a deleted collection, so
// the exposition doesn't grow without bound under create/delete churn. The
// next same-named collection starts fresh children from zero.
func (m *Metrics) removeCollection(name string) {
	for _, v := range []*obs.CounterVec{
		m.walBytes, m.walFrames, m.rollbacks, m.tornTails,
		m.qcHits, m.qcMisses, m.qcEvictions,
		m.candTotal, m.prunedTotal, m.estTotal, m.bufferAccepts,
		m.hashedTotal, m.shrinkTotal, m.fencing, m.quarantines,
	} {
		v.Remove(name)
	}
	for _, stage := range []string{"load", "scrub", "transfer"} {
		m.verifyFails.Remove(name, stage)
	}
	for _, v := range []*obs.GaugeVec{
		m.replaySecs, m.qcEntries, m.collRecords, m.collGen,
		m.journaled, m.walOffset, m.walSynced, m.readOnlyG,
		m.sketchTau, m.budgetUtil,
	} {
		v.Remove(name)
	}
	for _, v := range []*obs.HistogramVec{m.fsync, m.groupSize, m.batchSize, m.candidates, m.snapPause} {
		v.Remove(name)
	}
	for _, part := range residentParts {
		m.resident.Remove(name, part)
	}
	m.endpoints.Range(func(k, _ any) bool {
		key := k.(endpointKey)
		if key.collection == name {
			m.endpoints.Delete(k)
			m.httpRequests.Remove(key.pattern, name, "2xx")
			m.httpRequests.Remove(key.pattern, name, "4xx")
			m.httpRequests.Remove(key.pattern, name, "5xx")
			m.httpLatency.Remove(key.pattern, name)
		}
		return true
	})
}

// collMetrics is one collection's resolved metric children, hung on the
// Collection when it is assembled.
type collMetrics struct {
	fsync *obs.Histogram
	// snapPause takes one observation a snapshot: the whole index's encode,
	// for which inserts wait.
	snapPause   *obs.Histogram
	groupSize   *obs.Histogram
	walBytes    *obs.Counter
	walFrames   *obs.Counter
	rollbacks   *obs.Counter
	qcHits      *obs.Counter
	qcMisses    *obs.Counter
	qcEvictions *obs.Counter
	batchSize   *obs.Histogram
	candidates  *obs.Histogram
	candTotal   *obs.Counter
	pruned      *obs.Counter
	estimated   *obs.Counter
	bufAccepts  *obs.Counter
}

// collMetricsFor resolves the per-collection children once.
func (m *Metrics) collMetricsFor(name string) *collMetrics {
	return &collMetrics{
		fsync:       m.fsync.With(name),
		snapPause:   m.snapPause.With(name),
		groupSize:   m.groupSize.With(name),
		walBytes:    m.walBytes.With(name),
		walFrames:   m.walFrames.With(name),
		rollbacks:   m.rollbacks.With(name),
		qcHits:      m.qcHits.With(name),
		qcMisses:    m.qcMisses.With(name),
		qcEvictions: m.qcEvictions.With(name),
		batchSize:   m.batchSize.With(name),
		candidates:  m.candidates.With(name),
		candTotal:   m.candTotal.With(name),
		pruned:      m.prunedTotal.With(name),
		estimated:   m.estTotal.With(name),
		bufAccepts:  m.bufferAccepts.With(name),
	}
}

// residentParts are the part labels of gbkmv_collection_resident_bytes, in
// the order mirrorCollections sets them.
var residentParts = [...]string{"sketch", "records", "index", "vocabulary", "query_cache"}

// mirrorCollections is the store's scrape hook: point-in-time collection
// state (record counts, generations, WAL offsets, cache residency, build
// counters) is mirrored into registry gauges right before each exposition,
// so the steady-state request path never maintains them.
func (s *Store) mirrorCollections() {
	s.mu.RLock()
	cols := make([]*Collection, 0, len(s.cols))
	for _, c := range s.cols {
		cols = append(cols, c)
	}
	s.mu.RUnlock()
	m := s.metrics
	for _, c := range cols {
		name := c.name
		w := c.wal.status()
		if w.ok {
			m.walOffset.With(name).Set(float64(w.offset))
			m.walSynced.With(name).Set(float64(w.synced))
		}
		c.mu.RLock()
		records := c.eng.Len()
		var entries, cacheBytes int
		if c.qcache != nil {
			entries, cacheBytes = c.qcache.entries(), int(c.qcache.bytes.Load())
		}
		hashed, shrinks := c.eng.BuildCounters()
		es := c.eng.Stats()
		vocab := c.voc.SizeBytes()
		c.mu.RUnlock()
		m.collRecords.With(name).Set(float64(records))
		m.collGen.With(name).Set(float64(c.queryGen.Load()))
		var ro float64
		if c.readOnly.Load() {
			ro = 1
		}
		m.readOnlyG.With(name).Set(ro)
		m.journaled.With(name).Set(float64(w.entries))
		m.qcEntries.With(name).Set(float64(entries))
		m.hashedTotal.With(name).Set(hashed)
		m.shrinkTotal.With(name).Set(shrinks)
		m.sketchTau.With(name).Set(es.Tau)
		m.budgetUtil.With(name).Set(float64(es.UsedUnits) / float64(es.BudgetUnits))
		for i, bytes := range [...]int{es.SizeBytes, es.RecordBytes, es.IndexBytes, vocab, cacheBytes} {
			m.resident.With(name, residentParts[i]).Set(float64(bytes))
		}
	}
}

// Registry returns the store's metric registry, for serving GET /metrics and
// for registering additional process-level metrics (cmd/gbkmvd).
func (s *Store) Registry() *obs.Registry { return s.metrics.reg }
