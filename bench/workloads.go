package main

import (
	"fmt"

	"gbkmv/internal/dataset"
)

// spec is one workload: what is built, what traffic it gets, and how many
// ops a second of --seconds buys. The op rates were calibrated once on a
// 2-core host so that a run's measured phase lasts about --seconds; they are
// constants, never scaled by a measured duration, so that state, journal
// length and every count repeat (README: "Fixed op counts").
type spec struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text

	serving bool // a gbkmvd child process; false = the public library API
	records int  // records in the collection when it is built
	// headroom builds with budget_units = every element the run will ever
	// hold, so τ stays 1 and no insert shrinks; otherwise the build uses
	// budget_fraction 0.10 (the default), which is full from the first insert.
	headroom bool

	poolSize      int     // distinct query bodies
	subsetQueries bool    // 8–32 tokens of an indexed record; false = a whole indexed record
	zipfS         float64 // popularity skew of the pool in the schedule
	passes        bool    // schedule = whole passes over the pool (paper protocol)
	threshold     float64
	limit         int // search "limit"; 0 = all hits
	k             int

	insertShare, topkShare float64 // of main-phase ops; the rest are searches
	insertBatch            int     // records per insert request
	snapshotHalfway        bool
	opsPerSec              int

	// The probe: requests of the kinds the main mix lacks, so that every
	// end-to-end metric is measured on every workload.
	probeSearches, probeTopKs, probeInserts int

	accQueries int // long whole-record queries scored against the oracle after the restart
	builds     int // set-ups per run; setup_s is their median, build_krec_s their best
	// insertRounds > 0 (library only): the probe's inserts are applied to that
	// many freshly built engines, so that each insert repeats against the
	// same state and quietRepeats can be used on it.
	insertRounds int

	// cacheHitBand is a regime assertion: the query-cache hit ratio over the
	// main phase must fall inside it, or the run fails; {0,0} = unchecked.
	cacheHitBand [2]float64
	isSmoke      bool
}

var workloads = []*spec{
	{
		name:    "paper-batch",
		why:     "the paper's protocol through the library: only kernels, core and the engine adapter work, so an engine change shows undiluted",
		records: 50000, poolSize: 500, passes: true,
		threshold: 0.5, k: 10, insertBatch: 1, opsPerSec: 3400,
		probeInserts: 250, insertRounds: 20, accQueries: 1000, builds: 15,
	},
	{
		name:    "serve-read",
		why:     "gbkmvd, cheap subset queries drawn Zipf from 4x the query cache: HTTP, cache and segment fan-out dominate, the engine little",
		serving: true, records: 50000,
		poolSize: 16384, subsetQueries: true, zipfS: 1.05,
		threshold: 0.7, limit: 100, k: 10, topkShare: 0.2, insertBatch: 1, opsPerSec: 3700,
		probeInserts: 3000, probeSearches: 3000, probeTopKs: 1500, accQueries: 1000, builds: 5,
		cacheHitBand: [2]float64{0.55, 0.92},
	},
	{
		name:    "serve-write",
		why:     "gbkmvd bulk ingest with budget headroom (tau = 1): journal, group commit, fsync, snapshot and replay are the work, sketch upkeep is not",
		serving: true, records: 20000, headroom: true,
		poolSize: 2048, zipfS: 1.05,
		threshold: 0.5, limit: 100, k: 10, insertShare: 1, insertBatch: 4, snapshotHalfway: true, opsPerSec: 1400,
		probeSearches: 3000, probeTopKs: 1500, accQueries: 400, builds: 5,
	},
	{
		name:    "serve-mixed",
		why:     "gbkmvd at default options, cold full-record searches beside single-record inserts that shrink the threshold and contend on segment locks",
		serving: true, records: 50000,
		poolSize: 16384, zipfS: 1.05,
		threshold: 0.5, limit: 100, k: 10, insertShare: 0.2, insertBatch: 1, opsPerSec: 2000,
		probeSearches: 3000, probeTopKs: 1500, accQueries: 1000, builds: 5,
		cacheHitBand: [2]float64{0, 0.2},
	},
}

func workloadByName(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is one catalogue entry. BENCHMARK.json lists the same names,
// units, directions and bounds; smoke_test.go checks the two agree in both
// directions.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by; 0 for per-layer metrics
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// endToEnd is what a user of the system sees. Every workload reports every
// one of them: the op kinds a workload's main mix lacks are measured by its
// probe (README, "Main phase and probe").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"f1", "ratio", "higher", 0.25},
	{"recall", "ratio", "higher", 0.15},
	{"space_ratio", "ratio", "lower", 0.25},
	{"disk_bytes_per_elem", "B/elem", "lower", 0.05},
	{"rss_mb", "MB", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.25},
}

// accMin is the least length of an accuracy query. A smoke-size collection
// has too few records of accQueryMin elements; its F1 is not looked at.
func (w *spec) accMin() int {
	if w.isSmoke {
		return 60
	}
	return accQueryMin
}

// smoke returns the workload at a size that exercises every code path in a
// few seconds and measures nothing.
func (w *spec) smoke() *spec {
	s := *w
	s.records = 2000
	s.poolSize = min(w.poolSize, 256)
	s.opsPerSec = 2000 / defaultSeconds
	s.probeSearches, s.probeTopKs, s.probeInserts = min(w.probeSearches, 100), min(w.probeTopKs, 100), min(w.probeInserts, 100)
	s.accQueries = min(w.accQueries, 100)
	if w.passes {
		s.poolSize = min(s.poolSize, s.accQueries) // the timed queries are the first of the scored ones
	}
	s.builds = 1
	s.cacheHitBand = [2]float64{}
	s.isSmoke = true
	return &s
}

// perLayer is what the traced run reports: one layer's work, time or waste
// each, named <layer>.<metric>. They have no bound. README has, per layer,
// which end-to-end metric each should move and on which workload.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	// client: the harness itself.
	add("higher", "krec/s", "client.build_krec_s")
	add("lower", "s", "client.restart_s")
	add("lower", "us", "client.cpu_us_per_op")
	add("higher", "1/s", "client.search_qps")
	add("higher", "rec/s", "client.insert_rps")
	add("lower", "ms", "client.search_p50_ms", "client.topk_p50_ms", "client.search_p50_main_ms", "client.search_p50_whole_ms", "client.search_p95_ms", "client.search_p99_ms",
		"client.topk_p95_ms", "client.insert_p50_ms", "client.insert_p95_ms", "client.insert_p99_ms")
	add("lower", "us", "client.loopback_us")
	add("lower", "%", "client.ladder_residual_pct")
	add("lower", "s", "client.gen_s", "client.oracle_s")
	add("higher", "count", "client.true_hits_per_query")
	// kernel: internal/hash, internal/gkmv, internal/bitmap, internal/selectk.
	add("lower", "ns", "kernel.hash_ns_per_elem", "kernel.intersect_ns_per_pair", "kernel.andcount_ns_per_word",
		"kernel.selectk_ns_per_elem")
	add("lower", "count", "kernel.intersect_keys_per_pair")
	// core: internal/core.
	add("lower", "ms", "core.build_ms", "core.save_ms", "core.load_ms")
	add("lower", "us", "core.sketch_query_us", "core.search_us", "core.topk_us", "core.self_us",
		"core.add_us_per_rec.headroom", "core.add_us_per_rec.saturated")
	add("lower", "count", "core.elems_hashed", "core.candidates_per_q", "core.pruned_per_q", "core.estimated_per_q",
		"core.shrinks_per_kinsert", "core.buffer_bits")
	add("higher", "ratio", "core.hit_ratio", "core.tau")
	// engine: the root package's registry adapters.
	for _, e := range engineNames {
		add("lower", "ms", "engine."+e+".build_ms")
		add("lower", "us", "engine."+e+".search_us")
		add("higher", "ratio", "engine."+e+".f1")
		add("lower", "B", "engine."+e+".bytes")
	}
	add("lower", "us", "engine.prepare_us", "engine.search_us", "engine.self_us")
	add("lower", "count", "engine.allocs_per_search")
	// segment: segmented.go.
	for _, n := range segmentCounts {
		tag := fmt.Sprintf(".n%d", n)
		add("lower", "us", "segment.search_us"+tag, "segment.topk_us"+tag, "segment.add_us_per_rec"+tag)
		add("higher", "ratio", "segment.f1"+tag)
	}
	add("lower", "ratio", "segment.skew.n8")
	add("lower", "ms", "segment.save_pause_ms.n1", "segment.save_pause_ms.n8")
	add("lower", "us", "segment.search_us", "segment.self_us")
	// store: internal/server's collection, journal, snapshot and load.
	add("lower", "us", "store.insert_us", "store.insert_self_us", "store.search_us", "store.search_self_us",
		"store.fsync_p50_us.disk", "store.replay_us_per_entry.headroom", "store.replay_us_per_entry.saturated")
	add("lower", "count", "store.fsyncs_per_insert")
	add("higher", "count", "store.group_size_mean")
	add("lower", "B/elem", "store.wal_bytes_per_elem", "store.snapshot_bytes_per_elem")
	add("lower", "ms", "store.snapshot_ms", "store.load_ms")
	// http: internal/server's Handler, json.go, querycache.go, middleware.
	add("lower", "us", "http.search_hit_us", "http.search_miss_us", "http.topk_us", "http.insert_us", "http.self_us")
	add("higher", "ratio", "http.cache_hit_ratio")
	add("lower", "1/kq", "http.cache_evictions_per_kq")
	add("lower", "B", "http.resp_bytes_per_search")
	add("lower", "count", "http.allocs_per_search")
	// repl: Collection.ApplyReplicated, Store.InstallReplica.
	add("lower", "us", "repl.apply_us_per_entry")
	add("higher", "MB/s", "repl.apply_mb_s")
	add("lower", "ms", "repl.bootstrap_ms")
	// eval: internal/eval on internal/dataset's seven profiles.
	for _, p := range dataset.Profiles() {
		add("higher", "ratio", "eval.f1."+p.Name)
	}
	add("lower", "ratio", "eval.mean_abs_err")
	return out
}()
