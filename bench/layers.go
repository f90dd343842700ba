package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gbkmv"
	"gbkmv/internal/core"
	"gbkmv/internal/dataset"
	"gbkmv/internal/eval"
	"gbkmv/internal/server"
)

// The layer microbenchmarks of the traced run: the rows that do not depend
// on the workload being traced (engine table, core build and persistence,
// segment counts, store snapshot/load/replay, replication apply, the quick
// accuracy profiles). They run on a corpus of their own, the paper-batch
// shape at 20k records, so they mean the same thing in every workload's
// trace.

var staticSpec = func() *spec {
	s := *workloadByName("paper-batch")
	s.records, s.poolSize, s.accQueries, s.opsPerSec, s.probeInserts = 20000, 200, 300, 0, 600
	return &s
}()

// engineNames is the engine table's row order. Only gbkmv is on a gated
// path; the others are reference rows (README, "Reference rows").
var engineNames = []string{"gbkmv", "gkmv", "kmv", "minhash", "lshforest", "lshensemble", "exact"}

var segmentCounts = []int{1, 2, 8}

func layerBenches(cfg runConfig, L map[string]float64) error {
	spec, evalScale := staticSpec, 0.25 // internal/experiments' quick scale
	if cfg.w.isSmoke {
		spec, evalScale = staticSpec.smoke(), 0.05
	}
	st := generate(spec, cfg.seed, 1)
	truth := newOracle(st.records).truth(st.acc, accThreshold, runtime.GOMAXPROCS(0))
	for _, section := range []struct {
		name string
		run  func() error
	}{
		{"engine", func() error { return engineTable(st, L) }},
		{"core", func() error { return coreBench(st, L) }},
		{"segment", func() error { return segmentBench(st, truth, L) }},
		{"store+repl", func() error { return storeBench(cfg, st, L) }},
		{"eval", func() error { return evalBench(evalScale, L) }},
	} {
		t0 := time.Now()
		if err := section.run(); err != nil {
			return err
		}
		logf("%s: layer benches: %s %.2fs", cfg.w.name, section.name, time.Since(t0).Seconds())
	}
	return nil
}

func score(search func(q gbkmv.Record) []int, queries [][]uint32, truth [][]int32) confusion {
	var c confusion
	var got []int32
	for i, q := range queries {
		got = toIDs(search(toRecord(q)), got)
		c.add(truth[i], got)
	}
	return c
}

// engineTable builds every registered engine on a 5k-record subsample and
// scores it against the oracle. The `exact` engine must score F1 = 1: that
// is the check that the oracle and the repo agree on what containment is.
func engineTable(st *inputs, L map[string]float64) error {
	sub := st.records[:min(5000, len(st.records))]
	queries := st.acc[:min(100, len(st.acc))]
	truth := newOracle(sub).truth(queries, accThreshold, runtime.GOMAXPROCS(0))
	recs := toRecords(sub)
	for _, name := range engineNames {
		t0 := time.Now()
		e, err := gbkmv.NewEngine(name, slices.Clone(recs), gbkmv.EngineOptions{})
		if err != nil {
			return fmt.Errorf("engine table: %s: %w", name, err)
		}
		L["engine."+name+".build_ms"] = ms(int64(time.Since(t0)))
		t0 = time.Now()
		c := score(func(q gbkmv.Record) []int { return e.Search(q, accThreshold) }, queries, truth)
		L["engine."+name+".search_us"] = us(int64(time.Since(t0))) / float64(len(queries))
		L["engine."+name+".f1"] = c.f1()
		L["engine."+name+".bytes"] = float64(e.EngineStats().SizeBytes)
		if name == "exact" && (c.fp != 0 || c.fn != 0) {
			return fmt.Errorf("engine table: the exact engine disagrees with the oracle: %d false positives, %d misses", c.fp, c.fn)
		}
	}
	return nil
}

// headroomOptions is the budget_units that holds elements element
// occurrences in records records with an eighth to spare.
func headroomOptions(elements, records int) int {
	units := elements + headroomBufferBits/32*records
	return units + units/8
}

// coreBench measures internal/core directly: build, persistence, and the
// insert path in both budget regimes.
func coreBench(st *inputs, L map[string]float64) error {
	recs := toRecords(st.records)
	ins := toRecords(st.inserts)
	ds := func() *dataset.Dataset {
		d := &dataset.Dataset{Universe: genUniverse, Records: make([]dataset.Record, len(recs))}
		for i, r := range recs {
			d.Records[i] = dataset.Record(r)
		}
		return d
	}
	var ix *core.Index
	var builds []float64
	for b := 0; b < 3; b++ {
		t0 := time.Now()
		var err error
		if ix, err = core.BuildIndex(ds(), core.Options{BufferBits: core.AutoBuffer}); err != nil {
			return err
		}
		builds = append(builds, ms(int64(time.Since(t0))))
	}
	L["core.build_ms"] = slices.Min(builds)
	hashed, _ := ix.BuildCounters()
	L["core.elems_hashed"], L["core.tau"], L["core.buffer_bits"] = float64(hashed), ix.Tau(), float64(ix.BufferBits())

	var buf bytes.Buffer
	t0 := time.Now()
	if err := ix.Save(&buf); err != nil {
		return err
	}
	L["core.save_ms"] = ms(int64(time.Since(t0)))
	t0 = time.Now()
	if _, err := core.Load(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	L["core.load_ms"] = ms(int64(time.Since(t0)))

	// Saturated: the 10% budget is full, so inserts pay threshold shrinks.
	t0 = time.Now()
	for _, r := range ins {
		ix.AddRecords([]dataset.Record{dataset.Record(r)})
	}
	L["core.add_us_per_rec.saturated"] = us(int64(time.Since(t0))) / float64(len(ins))
	// Headroom: room for everything, tau stays 1.
	elements := countElements(st.records, st.inserts)
	head, err := core.BuildIndex(ds(), core.Options{
		BudgetUnits: headroomOptions(elements, len(recs)+len(ins)), BufferBits: headroomBufferBits})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, r := range ins {
		head.AddRecords([]dataset.Record{dataset.Record(r)})
	}
	L["core.add_us_per_rec.headroom"] = us(int64(time.Since(t0))) / float64(len(ins))
	if _, shrinks := head.BuildCounters(); shrinks != 0 {
		return fmt.Errorf("core bench: %d shrinks with budget headroom", shrinks)
	}
	return nil
}

// segmentBench is the data for the -segments default: the same collection
// at 1, 2 and 8 segments. As parts are added the slowest sets the result, so
// on a 2-core host n8 should read worse than n1.
func segmentBench(st *inputs, truth [][]int32, L map[string]float64) error {
	recs := toRecords(st.records)
	ins := toRecords(st.inserts)
	for _, n := range segmentCounts {
		tag := fmt.Sprintf(".n%d", n)
		seg, err := gbkmv.NewSegmented("gbkmv", n, slices.Clone(recs), gbkmv.EngineOptions{})
		if err != nil {
			return err
		}
		L["segment.f1"+tag] = score(func(q gbkmv.Record) []int { return seg.Search(q, accThreshold) }, st.acc, truth).f1()
		var search, topk []int64
		for _, q := range st.acc {
			pq := seg.PrepareQuery(toRecord(q))
			t0 := time.Now()
			pq.SearchScored(accThreshold, 100)
			search = append(search, int64(time.Since(t0)))
			t0 = time.Now()
			pq.TopK(10)
			topk = append(topk, int64(time.Since(t0)))
		}
		slices.Sort(search)
		slices.Sort(topk)
		L["segment.search_us"+tag], L["segment.topk_us"+tag] = p50us(search), p50us(topk)

		var pause time.Duration
		seg.SetSaveObserver(func(_ int, d time.Duration) { pause = max(pause, d) })
		if err := seg.Save(io.Discard); err != nil {
			return err
		}
		if n != 2 {
			L["segment.save_pause_ms"+tag] = ms(int64(pause))
		}
		t0 := time.Now()
		for _, r := range ins {
			seg.AddBatch([]gbkmv.Record{r})
		}
		L["segment.add_us_per_rec"+tag] = us(int64(time.Since(t0))) / float64(len(ins))
		if n == 8 {
			per := seg.SegmentRecords()
			L["segment.skew.n8"] = float64(slices.Max(per)) / float64(max(1, slices.Min(per)))
		}
	}
	return nil
}

func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func copyDir(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return copyFile(filepath.Join(dst, rel), path)
	})
}

// storeBench measures internal/server's persistence and replication paths
// in-process: a leader store with one collection per budget regime takes the
// same journaled inserts; a copy of its directory taken while it is open is
// the crash image that load and replay are timed on; a second store is
// bootstrapped from the snapshot files and fed the journal through
// ApplyReplicated.
func storeBench(cfg runConfig, st *inputs, L map[string]float64) error {
	root, err := scratchDir(cfg.work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	quiet := func(string, ...any) {}
	open := func(dir string) (*server.Store, error) {
		return server.OpenStore(dir, server.StoreOptions{Logf: quiet, Segments: runtime.GOMAXPROCS(0)})
	}
	leaderDir := filepath.Join(root, "leader")
	leader, err := open(leaderDir)
	if err != nil {
		return err
	}
	defer leader.Close()
	handler := server.Handler(leader)
	elements, insElements := countElements(st.records), countElements(st.inserts)
	regimes := map[string]string{
		"saturated": `,"options":{}`,
		"headroom": fmt.Sprintf(`,"options":{"budget_units":%d,"buffer_bits":%d}`,
			headroomOptions(elements+insElements, len(st.records)+len(st.inserts)), headroomBufferBits),
	}
	const batch = 4
	requests := len(st.inserts) / batch
	entries := requests * batch // a journal entry is one record frame
	for name, options := range regimes {
		mw := &memWriter{h: http.Header{}}
		req, err := http.NewRequest("PUT", "/collections/"+name, bytes.NewReader(recordsBody(st.records, options)))
		if err != nil {
			return err
		}
		mw.reset()
		handler.ServeHTTP(mw, req)
		if mw.status != 200 {
			return fmt.Errorf("store bench: building %s: %d %s", name, mw.status, mw.body)
		}
		c, err := leader.Get(name)
		if err != nil {
			return err
		}
		for e := 0; e < requests; e++ {
			tokens := make([][]string, batch)
			for j := range tokens {
				tokens[j] = tokensOf(st.inserts[e*batch+j])
			}
			if _, err := c.Insert(tokens, ""); err != nil {
				return err
			}
		}
	}

	// Crash image: every insert above was acknowledged, so the journal files
	// are fsynced and complete; copying them is what a SIGKILL leaves behind.
	crashDir := filepath.Join(root, "crash")
	if err := copyDir(crashDir, leaderDir); err != nil {
		return err
	}
	t0 := time.Now()
	crashed, err := open(crashDir)
	if err != nil {
		return err
	}
	L["store.load_ms"] = ms(int64(time.Since(t0)))
	snap, err := scrapeStore(crashed)
	if err != nil {
		return err
	}
	for name := range regimes {
		c, err := crashed.Get(name)
		if err != nil {
			return fmt.Errorf("store bench: crash image lost %s: %w", name, err)
		}
		if got, want := c.Stats().NumRecords, len(st.records)+entries; got != want {
			return fmt.Errorf("store bench: %s recovered %d records, want %d", name, got, want)
		}
		secs := snap[`gbkmv_wal_replay_seconds{collection="`+name+`"}`]
		L["store.replay_us_per_entry."+name] = 1e6 * secs / float64(entries)
	}
	if err := crashed.Close(); err != nil {
		return err
	}

	// Replication: bootstrap a replica from the leader's committed
	// generation, then apply the leader's whole journal as one chunk.
	const name = "headroom"
	lc, err := leader.Get(name)
	if err != nil {
		return err
	}
	gen, _, _ := lc.ReplPosition()
	frames, err := os.ReadFile(filepath.Join(leaderDir, name, fmt.Sprintf("journal-%d.log", gen)))
	if err != nil {
		return err
	}
	replica, err := open(filepath.Join(root, "replica"))
	if err != nil {
		return err
	}
	defer replica.Close()
	t0 = time.Now()
	rdir, err := replica.CollectionDir(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	si, sv, sm := server.ReplicaSnapshotPaths(filepath.Join(leaderDir, name), gen)
	di, dv, dm := server.ReplicaSnapshotPaths(rdir, gen)
	for _, cp := range [][2]string{{si, di}, {sv, dv}, {sm, dm}} {
		if err := copyFile(cp[1], cp[0]); err != nil {
			return err
		}
	}
	rc, err := replica.InstallReplica(name)
	if err != nil {
		return err
	}
	L["repl.bootstrap_ms"] = ms(int64(time.Since(t0)))
	t0 = time.Now()
	off, applied, err := rc.ApplyReplicated(gen, 0, frames)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if off != int64(len(frames)) || applied != entries {
		return fmt.Errorf("store bench: replica applied %d entries to offset %d, want %d to %d", applied, off, entries, len(frames))
	}
	L["repl.apply_us_per_entry"] = us(int64(d)) / float64(entries)
	L["repl.apply_mb_s"] = float64(len(frames)) / (1 << 20) / d.Seconds()

	// Snapshot last: it rolls the generation and truncates the journal.
	t0 = time.Now()
	if _, err := leader.Snapshot(name); err != nil {
		return err
	}
	L["store.snapshot_ms"] = ms(int64(time.Since(t0)))
	bytesOnDisk, err := dirBytes(filepath.Join(leaderDir, name))
	if err != nil {
		return err
	}
	L["store.snapshot_bytes_per_elem"] = float64(bytesOnDisk) / float64(elements+insElements)
	return nil
}

// evalBench is the accuracy section: gbkmv at a 10% budget on the seven
// dataset profiles at internal/experiments' quick scale, scored by
// internal/eval. A performance change that moves any of these rows is an
// accuracy change.
func evalBench(scale float64, L map[string]float64) error {
	const seed, queries = 42, 15

	for i, prof := range dataset.Profiles() {
		pc := prof.Config
		pc.NumRecords = max(50, int(float64(pc.NumRecords)*scale))
		d, err := dataset.Synthetic(pc, seed)
		if err != nil {
			return err
		}
		ix, err := core.BuildIndex(d, core.Options{BudgetFraction: 0.10, BufferBits: core.AutoBuffer, Seed: seed})
		if err != nil {
			return err
		}
		qs := d.SampleQueries(queries, seed+1)
		truth := eval.GroundTruthAll(d, qs, accThreshold)
		L["eval.f1."+prof.Name] = eval.Run(eval.SearcherFunc(ix.Search), qs, truth, accThreshold).F1
		if i == 0 {
			L["eval.mean_abs_err"] = eval.MeanAbsError(d, qs, func(q dataset.Record, i int) float64 {
				return ix.EstimateContainment(ix.Sketch(q), i)
			})
		}
	}
	return nil
}
