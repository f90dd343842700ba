package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"gbkmv"
)

func toRecord(r []uint32) gbkmv.Record {
	out := make(gbkmv.Record, len(r))
	for i, e := range r {
		out[i] = gbkmv.Element(e)
	}
	return out
}

func toRecords(set [][]uint32) []gbkmv.Record {
	out := make([]gbkmv.Record, len(set))
	for i, r := range set {
		out[i] = toRecord(r)
	}
	return out
}

// selfCPUSeconds is the CPU time (user + system) this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// totalAlloc is the bytes this process has ever allocated on the heap.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeapMB is the heap still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func toIDs(ids []int, into []int32) []int32 {
	into = into[:0]
	for _, id := range ids {
		into = append(into, int32(id))
	}
	return into
}

// runPaperBatch is the paper's protocol through the public library API:
// build at a 10% budget, then sampled-record queries single-threaded. The
// same lifecycle as the serving workloads (build, queries, inserts, restart,
// accuracy, durable size) so that every end-to-end metric is a measurement
// here too, each in its library form.
func runPaperBatch(cfg runConfig, p *prepared) (*runResult, error) {
	w, in := cfg.w, p.in
	res := newResult()
	records, inserts, pool, acc := toRecords(in.records), toRecords(in.inserts), toRecords(in.pool), toRecords(in.acc)
	opt := gbkmv.EngineOptions{BudgetFraction: 0.10}
	maxID := len(records) + len(inserts)
	fail := func(format string, args ...any) {
		res.failed++
		if res.firstFailure == "" {
			res.firstFailure = fmt.Sprintf(format, args...)
		}
	}

	var eng gbkmv.Engine
	var setups, builds []float64
	heap0 := liveHeapMB()
	for b := 0; b < w.builds; b++ {
		eng = nil
		runtime.GC()
		t0 := time.Now()
		e, err := gbkmv.NewEngine("gbkmv", slices.Clone(records), opt)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		for _, q := range pool {
			e.Search(q, w.threshold)
		}
		setups = append(setups, time.Since(t0).Seconds())
		eng = e
	}
	res.e2e["setup_s"] = median(setups)
	res.layer["client.build_krec_s"] = float64(len(records)) / 1000 / slices.Min(builds)
	res.samples["setup_s"], res.samples["client.build_krec_s"] = len(setups), len(builds)
	// The process's resident set is mostly the harness's own corpus and
	// oracle, so the library form of rss_mb is the heap the engine retains.
	res.e2e["rss_mb"] = liveHeapMB() - heap0

	// The measured phase: whole passes over the timed queries, the state
	// unchanged throughout, so every query repeats exactly (quietRepeats).
	ph := &phase{}
	first := [2][]uint64{make([]uint64, len(pool)), make([]uint64, len(pool))}
	repeat := func(o op, sum uint64) {
		sum = sum<<1 | 1
		if old := first[o.kind][o.arg]; old == 0 {
			first[o.kind][o.arg] = sum
		} else if old != sum {
			fail("%v #%d: a repeated query changed its answer", o.kind, o.arg)
		}
	}
	runtime.GC()
	cpu0, alloc0 := selfCPUSeconds(), totalAlloc()
	start := time.Now()
	for n, o := range in.main {
		q := pool[o.arg]
		t0 := time.Now()
		switch o.kind {
		case opSearch:
			ids := eng.Search(q, w.threshold)
			ph.ops[opSearch] = append(ph.ops[opSearch], sample{int32(n), o.arg, int64(t0.Sub(start)), int64(time.Since(t0))})
			sum := uint64(len(ids))
			for i, id := range ids {
				if id < 0 || id >= maxID || (i > 0 && ids[i-1] >= id) {
					fail("search #%d: ids out of range or not ascending", o.arg)
					break
				}
				sum = (sum ^ uint64(id)) * 0x100000001B3
			}
			repeat(o, sum)
		case opTopK:
			hits := eng.SearchTopK(q, w.k)
			ph.ops[opTopK] = append(ph.ops[opTopK], sample{int32(n), o.arg, int64(t0.Sub(start)), int64(time.Since(t0))})
			sum := uint64(len(hits))
			for i, h := range hits {
				if len(hits) > w.k || h.ID < 0 || h.ID >= maxID || (i > 0 && hits[i-1].Score < h.Score) {
					fail("topk #%d: too many hits, id out of range or not best first", o.arg)
					break
				}
				sum = (sum ^ uint64(h.ID)) * 0x100000001B3
			}
			repeat(o, sum)
		}
	}
	res.attempted += len(in.main)
	res.layer["client.cpu_us_per_op"] = 1e6 * (selfCPUSeconds() - cpu0) / float64(len(in.main))
	// The harness's own bookkeeping in the loop (one latency sample per
	// query) is in this figure too: 32 bytes a query, amortised.
	res.e2e["alloc_kb_per_op"] = float64(totalAlloc()-alloc0) / 1024 / float64(len(in.main))

	// The probe: inserts at the full budget. Each round applies the same
	// inserts to a freshly built engine, so every insert repeats against the
	// same state; the last round's engine goes on to the restart.
	var shrinks uint64
	for r := 0; r < max(1, w.insertRounds); r++ {
		e, err := gbkmv.NewEngine("gbkmv", slices.Clone(records), opt)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		for n, o := range in.probe {
			batch := inserts[o.arg : int(o.arg)+w.insertBatch]
			t0 := time.Now()
			ids := e.AddBatch(batch)
			ph.ops[opInsert] = append(ph.ops[opInsert], sample{int32(n), o.arg, int64(t0.Sub(start)), int64(time.Since(t0))})
			for j, id := range ids {
				if id != len(records)+int(o.arg)+j {
					fail("insert #%d: id %d, want %d", o.arg, id, len(records)+int(o.arg)+j)
				}
			}
		}
		res.attempted += len(in.probe)
		_, shrinks = e.(*gbkmv.Index).BuildCounters()
		eng = e
	}
	ph.finish()
	qs, qt, qi := ph.quietRepeats(opSearch), ph.quietRepeats(opTopK), ph.quietRepeats(opInsert)
	res.layer["client.search_p50_ms"] = ms(qs.p50)
	res.layer["client.topk_p50_ms"] = ms(qt.p50)
	res.layer["client.search_qps"] = qs.rate
	res.layer["client.insert_rps"] = qi.rate * float64(w.insertBatch)
	res.layer["client.search_p50_main_ms"] = ms(qs.p50)
	res.layer["client.search_p95_ms"] = ms(qs.p95)
	res.layer["client.insert_p50_ms"] = ms(qi.p50)
	res.layer["client.insert_p95_ms"] = ms(qi.p95)
	res.layer["client.search_p50_whole_ms"] = ms(pct(ph.lat[opSearch], 0.50))
	res.layer["client.search_p99_ms"] = ms(pct(ph.lat[opSearch], 0.99))
	res.layer["client.topk_p95_ms"] = ms(pct(ph.lat[opTopK], 0.95))
	res.layer["client.insert_p99_ms"] = ms(pct(ph.lat[opInsert], 0.99))
	res.layer["core.shrinks_per_kinsert"] = 1000 * float64(shrinks) / float64(max(1, len(inserts)))
	res.samples["client.search_p50_ms"], res.samples["client.topk_p50_ms"] = len(ph.lat[opSearch]), len(ph.lat[opTopK])
	res.e2e["space_ratio"] = float64(eng.EngineStats().SizeBytes) / (8 * float64(p.elements))

	// Restart, in library form: persist, then time loading it back.
	dir, err := scratchDir(cfg.work, "paper-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "engine.snap")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := gbkmv.SaveEngine(bw, eng); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res.e2e["disk_bytes_per_elem"] = float64(fi.Size()) / float64(p.elements)
	eng = nil
	var loads []float64
	var loaded gbkmv.Engine
	for r := 0; r < 20; r++ {
		runtime.GC()
		t0 := time.Now()
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		loaded, err = gbkmv.LoadEngine(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			return nil, err
		}
		loads = append(loads, time.Since(t0).Seconds())
	}
	res.layer["client.restart_s"] = slices.Min(loads)
	res.samples["client.restart_s"] = len(loads)
	res.attempted++
	if loaded.Len() != maxID {
		fail("restart: %d records loaded, want %d", loaded.Len(), maxID)
	}

	// Accuracy of the reloaded engine against the oracle.
	var conf confusion
	var got []int32
	for q := 0; q < w.accQueries; q++ {
		got = toIDs(loaded.Search(acc[q], accThreshold), got)
		conf.add(p.truth[q], got)
	}
	res.attempted += w.accQueries
	res.e2e["f1"], res.e2e["recall"] = conf.f1(), conf.recall()
	res.samples["f1"] = w.accQueries
	if f := conf.f1(); !w.isSmoke && (f <= accFloor || f >= 0.98) {
		return nil, fmt.Errorf("%s: f1 = %.4f; it must sit inside (%.2f, 0.98) to be able to move both ways", w.name, f, accFloor)
	}
	res.layer["client.gen_s"], res.layer["client.oracle_s"] = p.genS, p.oracleS
	res.layer["client.true_hits_per_query"] = p.trueHits
	return res, nil
}
