package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

const restartReps = 8

// The headroom regime: room for every element the run will ever hold plus
// the buffer words of every record, so tau stays 1 and no insert shrinks. The
// buffer size is pinned, because the cost model spends whatever budget it is
// given on the buffer (16 840 bits at this size), which leaves a budget that
// looks ample full from the first insert (README, "What it already shows").
const headroomBufferBits = 64

// runConfig is one run of one workload.
type runConfig struct {
	w       *spec
	seed    uint64
	seconds int
	trace   bool
	bin     string // the gbkmvd binary
	work    string // scratch root; data directories live under it
	clients int
	out     string // where trace files go
}

// runResult is what one run measured. e2e and layer are keyed by the
// catalogue's metric names.
type runResult struct {
	attempted, failed int
	firstFailure      string
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int // sample count behind each timing
}

func newResult() *runResult {
	return &runResult{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// prepared is the client-side part of a run: inputs, oracle answers and
// marshalled requests. None of it is the program under test, so none of it
// counts toward setup_s; gen_s and oracle_s report it in the client layer.
type prepared struct {
	in       *inputs
	truth    [][]int32 // matches of in.acc over records ++ inserts, at accThreshold
	rq       *requests
	build    []byte // PUT body
	elements int    // element occurrences in records ++ inserts
	// budgetUnits is the headroom regime's budget_units (0 otherwise).
	budgetUnits int
	genS        float64
	oracleS     float64
	trueHits    float64 // median true matches per scored query
}

func prepare(w *spec, seed uint64, seconds int, trace bool) (*prepared, error) {
	p := &prepared{}
	t := time.Now()
	p.in = generate(w, seed, seconds)
	p.genS = time.Since(t).Seconds()

	t = time.Now()
	orc := newOracle(p.in.records, p.in.inserts)
	p.truth = orc.truth(p.in.acc, accThreshold, runtime.GOMAXPROCS(0))
	p.oracleS = time.Since(t).Seconds()
	hits := make([]float64, len(p.truth))
	for i, m := range p.truth {
		hits[i] = float64(len(m))
	}
	p.trueHits = median(hits)
	// Records come in planted families so that a query has a graded set of
	// true matches; without them F1 would measure nothing.
	if p.trueHits < 5 {
		return nil, fmt.Errorf("%s: median true hits per query is %.1f, want >= 5", w.name, p.trueHits)
	}

	p.elements = countElements(p.in.records, p.in.inserts)
	options := `,"options":{}`
	if w.headroom {
		p.budgetUnits = headroomOptions(p.elements, len(p.in.records)+len(p.in.inserts))
		options = fmt.Sprintf(`,"options":{"budget_units":%d,"buffer_bits":%d}`, p.budgetUnits, headroomBufferBits)
	}
	if w.serving || trace {
		p.rq = buildRequests(w, p.in)
		p.build = recordsBody(p.in.records, options)
	}
	return p, nil
}

// cacheMetrics reads the query-cache counters between two scrapes.
func cacheMetrics(L map[string]float64, before, after promSnapshot) {
	hits := after.delta(before, "gbkmv_query_cache_hits_total")
	lookups := hits + after.delta(before, "gbkmv_query_cache_misses_total")
	L["http.cache_hit_ratio"] = hits / max(1, lookups)
	L["http.cache_evictions_per_kq"] = 1000 * after.delta(before, "gbkmv_query_cache_evictions_total") / max(1, lookups)
}

// walMetrics reads the write path's work counters between two scrapes that
// bracket the insertion of inserted, batch records a request.
func walMetrics(L map[string]float64, before, after promSnapshot, inserted [][]uint32, batch int) {
	elems := countElements(inserted)
	requests := float64(len(inserted) / batch)
	fsyncs := after.delta(before, "gbkmv_wal_fsync_seconds_count")
	L["core.shrinks_per_kinsert"] = 1000 * after.delta(before, "gbkmv_build_threshold_shrinks_total") / max(1, float64(len(inserted)))
	L["store.fsyncs_per_insert"] = fsyncs / max(1, requests)
	L["store.group_size_mean"] = after.delta(before, "gbkmv_wal_commit_group_size_sum") / max(1, fsyncs)
	L["store.fsync_p50_us.disk"] = 1e6 * histQuantile(before, after, "gbkmv_wal_fsync_seconds", 0.5)
	L["store.wal_bytes_per_elem"] = after.delta(before, "gbkmv_wal_appended_bytes_total") / max(1, float64(elems))
}

// warmup is the unmeasured pass that ends set-up: the first read requests of
// the run's own schedule, so caches and lazily built state are as a client
// arriving mid-stream would find them.
func warmup(in *inputs) []op {
	const n = 4096
	var out []op
	for _, sched := range [][]op{in.main, in.probe} {
		for _, o := range sched {
			if (o.kind == opSearch || o.kind == opTopK) && len(out) < n {
				out = append(out, o)
			}
		}
	}
	return out
}

func runServing(cfg runConfig, p *prepared) (*runResult, error) {
	w, in := cfg.w, p.in
	res := newResult()
	chk := newChecker(w, in)

	// Set-up, w.builds times over; the last one stays up for the run.
	var d *daemon
	var setups, builds []float64
	warm := warmup(in)
	for b := 0; b < w.builds; b++ {
		data, err := scratchDir(cfg.work, "data-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if d, err = startDaemon(cfg.bin, data); err != nil {
			return nil, err
		}
		tb := time.Now()
		if _, err = d.call("PUT", "/collections/"+collName, p.build); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(tb).Seconds())
		chk.stable = true
		if _, err = drive(d.addr, cfg.clients, warm, p.rq, chk); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if b < w.builds-1 {
			d.stop(syscall.SIGKILL)
			os.RemoveAll(data)
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.layer["client.build_krec_s"] = float64(len(in.records)) / 1000 / slices.Min(builds)
	res.samples["setup_s"], res.samples["client.build_krec_s"] = len(setups), len(builds)

	// loopback: the part of every serving latency that is not the program.
	hz := make([]op, 2000)
	for i := range hz {
		hz[i].kind = opSnapshot // any non-query kind: only the status is checked
	}
	ping := *p.rq
	ping.snapshot = p.rq.healthz
	lb, err := drive(d.addr, 1, hz, &ping, chk)
	if err != nil {
		return nil, err
	}
	res.layer["client.loopback_us"] = us(pct(lb.lat[opSnapshot], 0.5))

	// The measured phase. Set-up left hundreds of megabytes of dirty pages
	// behind (four builds' snapshots, three deleted data directories); on a
	// journalling filesystem the daemon's next fsyncs would wait for that
	// writeback, so it is flushed first. This is the harness cleaning up after
	// itself — the daemon's own flush policy is untouched.
	syscall.Sync()
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	chk.stable = w.insertShare == 0
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	main, err := drive(d.addr, cfg.clients, in.main, p.rq, chk)
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.layer["client.cpu_us_per_op"] = 1e6 * (cpu1 - cpu0) / float64(main.count())
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	// What the daemon allocated per request: a count, so it repeats where
	// the timings above do not, and GC work follows it.
	res.e2e["alloc_kb_per_op"] = after.delta(before, "go_memstats_alloc_bytes_total") / 1024 / float64(main.count())
	res.attempted += main.count()
	if res.e2e["rss_mb"], err = d.hwmMB(); err != nil {
		return nil, err
	}

	// The probe: one closed-loop pass per op kind the main mix lacks,
	// inserts first so that the read passes see a collection at rest.
	probes := [3]*phase{}
	for _, k := range []opKind{opInsert, opSearch, opTopK} {
		var sched []op
		for _, o := range in.probe {
			if o.kind == k {
				sched = append(sched, o)
			}
		}
		if len(sched) == 0 {
			continue
		}
		chk.stable = k != opInsert
		chk.resetSeen()
		if probes[k], err = drive(d.addr, cfg.clients, sched, p.rq, chk); err != nil {
			return nil, err
		}
		res.attempted += probes[k].count()
	}
	afterProbe, err := d.scrape()
	if err != nil {
		return nil, err
	}
	// Read latency is gated on the probe: a few queries, probeRepeats times
	// each, against the collection at rest, each taken at its quietest
	// (load.go, quietRepeats). Rates, tails and insert latencies — of the
	// main phase where it has that kind of request, of the probe otherwise —
	// did not repeat within a quarter from run to run on this host and are
	// reported in the client layer, ungated (README, "Demoted").
	res.layer["client.search_p50_ms"] = ms(probes[opSearch].quietRepeats(opSearch).p50)
	res.layer["client.topk_p50_ms"] = ms(probes[opTopK].quietRepeats(opTopK).p50)
	res.samples["client.search_p50_ms"], res.samples["client.topk_p50_ms"] = len(probes[opSearch].lat[opSearch]), len(probes[opTopK].lat[opTopK])
	of := func(k opKind) *phase {
		if len(main.lat[k]) > 0 {
			return main
		}
		return probes[k]
	}
	s, t, i := of(opSearch), of(opTopK), of(opInsert)
	qs, qi := s.quietSlices(opSearch), i.quietSlices(opInsert)
	res.layer["client.search_qps"] = qs.rate
	res.layer["client.insert_rps"] = qi.rate * float64(w.insertBatch)
	res.layer["client.search_p50_main_ms"] = ms(qs.p50)
	res.layer["client.search_p95_ms"] = ms(qs.p95)
	res.layer["client.insert_p50_ms"] = ms(qi.p50)
	res.layer["client.insert_p95_ms"] = ms(qi.p95)
	// The whole-phase order statistics, interference and all.
	res.layer["client.search_p50_whole_ms"] = ms(pct(s.lat[opSearch], 0.50))
	res.layer["client.search_p99_ms"] = ms(pct(s.lat[opSearch], 0.99))
	res.layer["client.topk_p95_ms"] = ms(pct(t.lat[opTopK], 0.95))
	res.layer["client.insert_p99_ms"] = ms(pct(i.lat[opInsert], 0.99))
	res.layer["http.resp_bytes_per_search"] = float64(main.bytes) / float64(max(1, main.count()))

	// Regime assertions: a workload that has left its regime measures
	// something else, so the run fails rather than report it.
	shrinks := after.delta(before, "gbkmv_build_threshold_shrinks_total")
	if w.insertShare > 0 && w.headroom && shrinks != 0 {
		return nil, fmt.Errorf("%s: %v threshold shrinks with budget headroom, want 0", w.name, shrinks)
	}
	if w.insertShare > 0 && !w.headroom && shrinks == 0 {
		return nil, fmt.Errorf("%s: no threshold shrink at a full budget", w.name)
	}
	cacheMetrics(res.layer, before, after)
	hitRatio := res.layer["http.cache_hit_ratio"]
	if b := w.cacheHitBand; b != [2]float64{} && w.insertShare < 1 && (hitRatio < b[0] || hitRatio > b[1]) {
		return nil, fmt.Errorf("%s: query-cache hit ratio %.3f outside [%.2f, %.2f]", w.name, hitRatio, b[0], b[1])
	}
	logf("%s: set-up %.2fs x%d, main %.2fs (%d ops), probe %.2fs/%.2fs/%.2fs; cache hit ratio %.3f, %v shrinks in main",
		w.name, median(setups), len(setups), main.wall.Seconds(), main.count(),
		i.wall.Seconds(), s.wall.Seconds(), t.wall.Seconds(), hitRatio, shrinks)
	walMetrics(res.layer, before, afterProbe, in.inserts, w.insertBatch)

	st, err := d.stats()
	if err != nil {
		return nil, err
	}
	res.e2e["space_ratio"] = float64(st.SizeBytes) / (8 * float64(p.elements))
	want := len(in.records) + len(in.inserts)
	logf("%s: tau %.4f, buffer %d bits, %d bytes; %+v", w.name, st.Tau, st.BufferBits, st.SizeBytes, st.Segments)
	if st.NumRecords != want {
		return nil, fmt.Errorf("%s: %d records before the crash, want %d", w.name, st.NumRecords, want)
	}

	// Crash and restart: SIGKILL after the last ack, then spawn until
	// /readyz answers and every acknowledged record is back. Done eight
	// times over the same files (a recovery changes nothing on disk that the
	// next one reads differently), and the quickest is reported.
	data := d.dataDir
	var restarts []float64
	reps := restartReps
	if cfg.trace {
		reps = 1 // the traced run reports no restart_s
	}
	for r := 0; r < reps; r++ {
		d.stop(syscall.SIGKILL)
		t0 := time.Now()
		if d, err = startDaemon(cfg.bin, data); err != nil {
			return nil, err
		}
		if st, err = d.stats(); err != nil {
			return nil, err
		}
		restarts = append(restarts, time.Since(t0).Seconds())
		res.attempted++
		if st.NumRecords != want {
			chk.fail("restart: %d records after the crash, %d were acknowledged", st.NumRecords, want)
		}
	}
	res.layer["client.restart_s"] = slices.Min(restarts)
	res.samples["client.restart_s"] = len(restarts)

	// Accuracy, on the recovered collection: the scored queries, unlimited,
	// against the oracle over everything that was built or inserted.
	acc := make([]op, w.accQueries)
	for q := range acc {
		acc[q] = op{opSearch, int32(q)}
	}
	scored := *p.rq
	scored.search = p.rq.accuracy
	accSpec := *w
	accSpec.limit, accSpec.threshold = 0, accThreshold
	accChk := &checker{w: &accSpec, built: chk.built, maxID: chk.maxID}
	rc, err := dialRaw(d.addr)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	var conf confusion
	var ids []int32
	for q, o := range acc {
		status, body, err := rc.do(scored.of(o))
		if err != nil {
			return nil, err
		}
		ids = accChk.check(o, status, body, ids)
		got := make([]int32, 0, len(ids))
		for _, id := range ids {
			if m := chk.mine[id].Load(); m >= 0 {
				got = append(got, m)
			} else {
				accChk.fail("search #%d returned id %d, which no acknowledged insert created", q, id)
			}
		}
		slices.Sort(got)
		conf.add(p.truth[q], got)
	}
	res.attempted += len(acc)
	res.e2e["f1"], res.e2e["recall"] = conf.f1(), conf.recall()
	res.samples["f1"] = len(acc)
	// With headroom tau is 1 and every estimate exact: F1 = 1 is the regime.
	if f := conf.f1(); !w.isSmoke && (f <= accFloor || (f >= 0.98 && !w.headroom)) {
		return nil, fmt.Errorf("%s: f1 = %.4f; it must sit inside (%.2f, 0.98) to be able to move both ways", w.name, f, accFloor)
	}

	// Graceful stop: SIGTERM snapshots, and what is left on disk is the
	// collection's durable size.
	d.stop(syscall.SIGTERM)
	bytes, err := dirBytes(filepath.Join(data, collName))
	if err != nil {
		return nil, err
	}
	res.e2e["disk_bytes_per_elem"] = float64(bytes) / float64(p.elements)
	os.RemoveAll(data)

	res.failed = int(chk.failed.Load() + accChk.failed.Load())
	res.firstFailure = chk.first
	if res.firstFailure == "" {
		res.firstFailure = accChk.first
	}
	res.layer["client.gen_s"], res.layer["client.oracle_s"] = p.genS, p.oracleS
	res.layer["client.true_hits_per_query"] = p.trueHits
	return res, nil
}
