package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gbkmv"
	"gbkmv/internal/bitmap"
	"gbkmv/internal/core"
	"gbkmv/internal/dataset"
	"gbkmv/internal/gkmv"
	"gbkmv/internal/hash"
	"gbkmv/internal/selectk"
	"gbkmv/internal/server"
)

// The traced run. End-to-end metrics always come from the untraced run; this
// one takes a fixed sample of the workload's ops and replays every sampled
// op once per layer boundary, outermost first, in-process:
//
//	http     server.Handler(store).ServeHTTP, in-memory writer
//	store    Collection.SearchRaw / TopKRaw / Insert
//	segment  a prepared query / AddBatch on a twin gbkmv.Segmented
//	engine   the same on a twin bare engine
//	core     core.Index.SearchSigScored / SearchTopKSig / AddRecords on a twin
//	kernel   IntersectViews + AndCountWords over the op's own hits, or
//	         UnitHash over an insert's own elements
//
// Each layer has its own copy of the collection, built from the same records
// with the daemon's options and shown the same ops in the same order, so a
// layer's cache and budget state is what it would be without the ladder.
// Each replay is a span whose parent is the next-outer replay of the same
// op; a layer's self time is its span minus its child's. Spans and the work
// counts read at the same boundaries stay in memory and are written to
// <out>/trace-<workload>.json at the end.

const traceOps = 2000

var ladderLayers = [...]string{"http", "store", "segment", "engine", "core", "kernel"}

type span struct {
	Op     int              `json:"op"` // position in the sample; spans of one op share it
	Kind   string           `json:"kind"`
	Layer  string           `json:"layer"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"` // index of the parent span; -1 for the outermost
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// memWriter is the in-memory http.ResponseWriter of the http layer.
type memWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (m *memWriter) Header() http.Header         { return m.h }
func (m *memWriter) WriteHeader(status int)      { m.status = status }
func (m *memWriter) Write(b []byte) (int, error) { m.body = append(m.body, b...); return len(b), nil }
func (m *memWriter) reset() {
	clear(m.h)
	m.status, m.body = 200, m.body[:0]
}

// sampleOps picks up to traceOps ops from the run's schedule, evenly strided
// within each op kind and at least 100 of a kind that occurs at all, in
// schedule order.
func sampleOps(in *inputs) []op {
	all := append(slices.Clone(in.main), in.probe...)
	var byKind [3][]int
	for i, o := range all {
		if o.kind != opSnapshot {
			byKind[o.kind] = append(byKind[o.kind], i)
		}
	}
	var picked []int
	for _, idx := range byKind {
		want := min(len(idx), max(100, traceOps*len(idx)/max(1, len(all))))
		for j := 0; j < want; j++ {
			picked = append(picked, idx[j*len(idx)/want])
		}
	}
	slices.Sort(picked)
	out := make([]op, len(picked))
	for i, n := range picked {
		out[i] = all[n]
	}
	return out
}

func tokensOf(r []uint32) []string {
	out := make([]string, len(r))
	for i, e := range r {
		b := appendToken(nil, e)
		out[i] = string(b[1 : len(b)-1])
	}
	return out
}

// ladder holds one copy of the collection per layer.
type ladder struct {
	w        *spec
	in       *inputs
	store    *server.Store
	handler  http.Handler
	collHTTP *server.Collection
	collSt   *server.Collection
	seg      *gbkmv.Segmented
	eng      gbkmv.Engine
	ix       *core.Index
	bitOf    map[hash.Element]int // the core twin's buffer layout, for the kernel views
	spans    []span
	t0       time.Time

	// What the kernel spans touched, kept for the kernel microbenchmarks.
	pairs [][2]gkmv.View
	words [][]uint64
}

func engineOptions(w *spec, p *prepared) gbkmv.EngineOptions {
	if w.headroom {
		return gbkmv.EngineOptions{BudgetUnits: p.budgetUnits, BufferBits: headroomBufferBits}
	}
	return gbkmv.EngineOptions{BudgetFraction: 0.10}
}

func newLadder(cfg runConfig, p *prepared, dir string) (*ladder, error) {
	w, in := cfg.w, p.in
	l := &ladder{w: w, in: in}
	var err error
	// The store as gbkmvd opens it: default engine, default query cache,
	// -segments at its default.
	l.store, err = server.OpenStore(dir, server.StoreOptions{
		Logf: func(string, ...any) {}, Segments: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	l.handler = server.Handler(l.store)
	for _, name := range []string{"http", "store"} {
		mw := &memWriter{h: http.Header{}}
		req, err := http.NewRequest("PUT", "/collections/"+name, bytes.NewReader(p.build))
		if err != nil {
			return nil, err
		}
		mw.reset()
		l.handler.ServeHTTP(mw, req)
		if mw.status != 200 {
			return nil, fmt.Errorf("ladder: building %q: %d %s", name, mw.status, mw.body)
		}
	}
	if l.collHTTP, err = l.store.Get("http"); err != nil {
		return nil, err
	}
	if l.collSt, err = l.store.Get("store"); err != nil {
		return nil, err
	}
	records := toRecords(in.records)
	opt := engineOptions(w, p)
	if l.seg, err = gbkmv.NewSegmented("gbkmv", runtime.GOMAXPROCS(0), slices.Clone(records), opt); err != nil {
		return nil, err
	}
	if l.eng, err = gbkmv.NewEngine("gbkmv", slices.Clone(records), opt); err != nil {
		return nil, err
	}
	buffer := core.AutoBuffer
	if opt.BufferBits > 0 {
		buffer = opt.BufferBits
	}
	l.ix, err = core.BuildIndex(&dataset.Dataset{Records: slices.Clone(records), Universe: genUniverse},
		core.Options{BudgetFraction: opt.BudgetFraction, BudgetUnits: opt.BudgetUnits, BufferBits: buffer})
	if err != nil {
		return nil, err
	}
	l.bitOf = map[hash.Element]int{}
	for bit, e := range l.ix.BufferElements() {
		l.bitOf[e] = bit
	}
	return l, nil
}

// signature is a record's GB-KMV signature under the core twin's current
// threshold and buffer layout, built the way the index builds it.
func (l *ladder) signature(r gbkmv.Record) (*bitmap.Bitmap, []uint64, gkmv.View) {
	bm := bitmap.New(max(1, l.ix.BufferBits()))
	rest := make(dataset.Record, 0, len(r))
	for _, e := range r {
		if bit, ok := l.bitOf[e]; ok {
			bm.Set(bit)
		} else {
			rest = append(rest, e)
		}
	}
	words := make([]uint64, bm.Words())
	for i := range words {
		words[i] = bm.Word(i)
	}
	hs, complete := gkmv.BuildHashes(rest, l.ix.Tau(), l.ix.Seed())
	return bm, words, gkmv.MakeView(hs, complete)
}

var kernelSink int

// span runs f as one span of op n and returns its index.
func (l *ladder) span(n int, kind opKind, layer string, parent int, f func()) int {
	s := span{Op: n, Kind: kind.String(), Layer: layer, Parent: parent, Counts: map[string]int64{}}
	s.Start = int64(time.Since(l.t0))
	f()
	s.End = int64(time.Since(l.t0))
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// replay runs one sampled op down the ladder.
func (l *ladder) replay(n int, o op) error {
	w, in := l.w, l.in
	mw := &memWriter{h: http.Header{}}
	mw.reset()
	var hits []server.Hit
	switch o.kind {
	case opSearch, opTopK:
		q := in.pool[o.arg]
		raw := appendTokens(nil, q)
		rec := toRecord(q)
		path, body := "/collections/http/search", searchBody(q, w.threshold, w.limit)
		if o.kind == opTopK {
			path, body = "/collections/http/topk", topkBody(q, w.k)
		}
		req, err := http.NewRequest("POST", path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		before := l.collHTTP.Stats().QueryCache
		sp := l.span(n, o.kind, "http", -1, func() { l.handler.ServeHTTP(mw, req) })
		if mw.status != 200 {
			return fmt.Errorf("ladder http %v #%d: %d %s", o.kind, o.arg, mw.status, mw.body)
		}
		l.spans[sp].Counts["resp_bytes"] = int64(len(mw.body))
		if after := l.collHTTP.Stats().QueryCache; before != nil && after != nil {
			l.spans[sp].Counts["cache_hit"] = int64(after.Hits - before.Hits)
		}

		var err2 error
		sp = l.span(n, o.kind, "store", sp, func() {
			if o.kind == opSearch {
				hits, _, err2 = l.collSt.SearchRaw(raw, w.threshold, w.limit, false, hits[:0], nil)
			} else {
				hits, err2 = l.collSt.TopKRaw(raw, w.k, false, hits[:0], nil)
			}
		})
		if err2 != nil {
			return err2
		}
		l.spans[sp].Counts["hits"] = int64(len(hits))

		for _, twin := range []struct {
			layer string
			e     gbkmv.Engine
		}{{"segment", l.seg}, {"engine", l.eng}} {
			t0 := time.Now()
			pq := twin.e.PrepareQuery(rec)
			prep := time.Since(t0)
			sp = l.span(n, o.kind, twin.layer, sp, func() {
				if o.kind == opSearch {
					pq.SearchScored(w.threshold, w.limit)
				} else {
					pq.TopK(w.k)
				}
			})
			l.spans[sp].Counts["prepare_ns"] = int64(prep)
		}

		t0 := time.Now()
		sig := l.ix.Sketch(dataset.Record(rec))
		sketch := time.Since(t0)
		var scored []core.Scored
		sp = l.span(n, o.kind, "core", sp, func() {
			if o.kind == opSearch {
				scored, _ = l.ix.SearchSigScored(sig, w.threshold, w.limit)
			} else {
				scored = l.ix.SearchTopKSig(sig, w.k)
			}
		})
		c := l.spans[sp].Counts
		c["sketch_ns"] = int64(sketch)
		c["candidates"], c["pruned"] = int64(sig.Stats.Candidates), int64(sig.Stats.PrunedByBound)
		c["estimated"], c["buffer_accepts"] = int64(sig.Stats.Estimated), int64(sig.Stats.BufferAccepts)
		c["hits"] = int64(len(scored))

		// The kernels on the op's own views: the query's signature against
		// the signature of every record the core layer returned.
		qbm, _, qview := l.signature(rec)
		views := make([]gkmv.View, len(scored))
		words := make([][]uint64, len(scored))
		keys := 0
		for i, h := range scored {
			_, words[i], views[i] = l.signature(l.ix.Records()[h.ID])
			keys += qview.K() + views[i].K()
		}
		sp = l.span(n, o.kind, "kernel", sp, func() {
			for i := range views {
				kernelSink += gkmv.IntersectViews(qview, views[i]).KInter + qbm.AndCountWords(words[i])
			}
		})
		c = l.spans[sp].Counts
		c["pairs"], c["keys"], c["words"] = int64(len(views)), int64(keys), int64(len(views)*qbm.Words())
		if len(l.pairs) < 50000 {
			for i := range views {
				l.pairs = append(l.pairs, [2]gkmv.View{qview, views[i]})
				l.words = append(l.words, words[i])
			}
		}

	case opInsert:
		batch := in.inserts[o.arg : int(o.arg)+w.insertBatch]
		recs := toRecords(batch)
		tokens := make([][]string, len(batch))
		elems := 0
		for i, r := range batch {
			tokens[i] = tokensOf(r)
			elems += len(r)
		}
		req, err := http.NewRequest("POST", "/collections/http/records", bytes.NewReader(recordsBody(batch, "")))
		if err != nil {
			return err
		}
		sp := l.span(n, o.kind, "http", -1, func() { l.handler.ServeHTTP(mw, req) })
		if mw.status != 200 {
			return fmt.Errorf("ladder http insert #%d: %d %s", o.arg, mw.status, mw.body)
		}
		var err2 error
		sp = l.span(n, o.kind, "store", sp, func() { _, err2 = l.collSt.Insert(tokens, "") })
		if err2 != nil {
			return err2
		}
		sp = l.span(n, o.kind, "segment", sp, func() { l.seg.AddBatch(slices.Clone(recs)) })
		sp = l.span(n, o.kind, "engine", sp, func() { l.eng.AddBatch(slices.Clone(recs)) })
		_, shrinks0 := l.ix.BuildCounters()
		drecs := make([]dataset.Record, len(recs))
		for i, r := range recs {
			drecs[i] = dataset.Record(r)
		}
		sp = l.span(n, o.kind, "core", sp, func() { l.ix.AddRecords(drecs) })
		_, shrinks1 := l.ix.BuildCounters()
		l.spans[sp].Counts["records"], l.spans[sp].Counts["shrinks"] = int64(len(recs)), int64(shrinks1-shrinks0)
		seed := l.ix.Seed()
		sp = l.span(n, o.kind, "kernel", sp, func() {
			for _, r := range recs {
				for _, e := range r {
					if hash.UnitHash(e, seed) < 0 {
						kernelSink++
					}
				}
			}
		})
		l.spans[sp].Counts["elements"] = int64(elems)
	}
	return nil
}

// warm shows a read op to the two layers that cache, unrecorded.
func (l *ladder) warm(o op) error {
	q := l.in.pool[o.arg]
	path, body := "/collections/http/search", searchBody(q, l.w.threshold, l.w.limit)
	if o.kind == opTopK {
		path, body = "/collections/http/topk", topkBody(q, l.w.k)
	}
	req, err := http.NewRequest("POST", path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	mw := &memWriter{h: http.Header{}}
	mw.reset()
	l.handler.ServeHTTP(mw, req)
	if mw.status != 200 {
		return fmt.Errorf("ladder warm-up %v #%d: %d %s", o.kind, o.arg, mw.status, mw.body)
	}
	if o.kind == opSearch {
		_, _, err = l.collSt.SearchRaw(appendTokens(nil, q), l.w.threshold, l.w.limit, false, nil, nil)
	} else {
		_, err = l.collSt.TopKRaw(appendTokens(nil, q), l.w.k, false, nil, nil)
	}
	return err
}

// scrapeStore reads an in-process store's metrics the way the daemon's are
// read, through the Prometheus text it would serve.
func scrapeStore(s *server.Store) (promSnapshot, error) {
	var b bytes.Buffer
	if err := s.Registry().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}

// durations returns, per op, the duration of its span at layer, for ops of
// the given kind that pass keep (nil keeps all).
func (l *ladder) durations(layer string, kind opKind, keep func(span) bool) []int64 {
	var out []int64
	for _, s := range l.spans {
		if s.Layer == layer && s.Kind == kind.String() && (keep == nil || keep(s)) {
			out = append(out, s.dur())
		}
	}
	slices.Sort(out)
	return out
}

// selfTimes returns, per op of the given kind, layer's span minus its
// child's.
func (l *ladder) selfTimes(layer string, kind opKind) []int64 {
	var out []int64
	for i, s := range l.spans {
		if s.Parent < 0 || l.spans[s.Parent].Layer != layer || s.Kind != kind.String() {
			continue
		}
		out = append(out, l.spans[s.Parent].dur()-l.spans[i].dur())
	}
	slices.Sort(out)
	return out
}

func (l *ladder) sumCount(layer string, kind opKind, name string) (sum int64, n int) {
	for _, s := range l.spans {
		if s.Layer == layer && s.Kind == kind.String() {
			sum += s.Counts[name]
			n++
		}
	}
	return sum, n
}

func p50us(l []int64) float64 { return us(pct(l, 0.5)) }

// runTrace adds the per-layer metrics to res: the ladder over this
// workload's own ops, then the layer microbenchmarks of layers.go.
func runTrace(cfg runConfig, p *prepared, res *runResult) error {
	w := cfg.w
	dir, err := scratchDir(cfg.work, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := newLadder(cfg, p, dir)
	if err != nil {
		return err
	}
	defer l.store.Close()

	// The same warm-up the daemon got, on the two layers that cache.
	for _, o := range warmup(p.in) {
		if err := l.warm(o); err != nil {
			return err
		}
	}
	before, err := scrapeStore(l.store)
	if err != nil {
		return err
	}
	l.t0 = time.Now()
	sample := sampleOps(p.in)
	for n, o := range sample {
		if err := l.replay(n, o); err != nil {
			return err
		}
	}

	L := res.layer
	isHit := func(s span) bool { return s.Counts["cache_hit"] > 0 }
	hitD := l.durations("http", opSearch, isHit)
	missD := l.durations("http", opSearch, func(s span) bool { return !isHit(s) })
	L["http.search_hit_us"], L["http.search_miss_us"] = p50us(hitD), p50us(missD)
	L["http.topk_us"] = p50us(l.durations("http", opTopK, nil))
	L["http.insert_us"] = p50us(l.durations("http", opInsert, nil))
	var httpSelf []int64
	for _, k := range []opKind{opSearch, opTopK, opInsert} {
		httpSelf = append(httpSelf, l.selfTimes("http", k)...)
	}
	slices.Sort(httpSelf)
	L["http.self_us"] = p50us(httpSelf)
	L["store.search_us"] = p50us(l.durations("store", opSearch, nil))
	L["store.search_self_us"] = p50us(l.selfTimes("store", opSearch))
	L["store.insert_us"] = p50us(l.durations("store", opInsert, nil))
	L["store.insert_self_us"] = p50us(l.selfTimes("store", opInsert))
	L["segment.search_us"] = p50us(l.durations("segment", opSearch, nil))
	L["segment.self_us"] = p50us(l.selfTimes("segment", opSearch))
	L["engine.search_us"] = p50us(l.durations("engine", opSearch, nil))
	L["engine.self_us"] = p50us(l.selfTimes("engine", opSearch))
	L["core.search_us"] = p50us(l.durations("core", opSearch, nil))
	L["core.topk_us"] = p50us(l.durations("core", opTopK, nil))
	L["core.self_us"] = p50us(l.selfTimes("core", opSearch))
	sketch, nq := l.sumCount("core", opSearch, "sketch_ns")
	L["core.sketch_query_us"] = float64(sketch) / 1e3 / float64(max(1, nq))
	for _, c := range []string{"candidates", "pruned", "estimated"} {
		sum, n := l.sumCount("core", opSearch, c)
		L["core."+c+"_per_q"] = float64(sum) / float64(max(1, n))
	}
	hits, _ := l.sumCount("core", opSearch, "hits")
	est, _ := l.sumCount("core", opSearch, "estimated")
	accepts, _ := l.sumCount("core", opSearch, "buffer_accepts")
	L["core.hit_ratio"] = float64(hits) / float64(max(1, est+accepts))
	prep, np := l.sumCount("engine", opSearch, "prepare_ns")
	L["engine.prepare_us"] = float64(prep) / 1e3 / float64(max(1, np))
	if !w.serving {
		// No daemon ran: the cache and write-path counters are the ladder's
		// (two collections took every insert, hence the doubled stream).
		after, err := scrapeStore(l.store)
		if err != nil {
			return err
		}
		cacheMetrics(L, before, after)
		walMetrics(L, before, after, append(slices.Clone(p.in.inserts), p.in.inserts...), w.insertBatch)
		rb, nr := l.sumCount("http", opSearch, "resp_bytes")
		L["http.resp_bytes_per_search"] = float64(rb) / float64(max(1, nr))
	}
	if loop, ok := L["client.loopback_us"]; ok {
		// How much of the end-to-end median the ladder explains.
		e2e := 1000 * L["client.search_p50_whole_ms"]
		ladder := p50us(l.durations("http", opSearch, nil)) + loop
		L["client.ladder_residual_pct"] = 100 * math.Abs(e2e-ladder) / e2e
	} else {
		L["client.loopback_us"], L["client.ladder_residual_pct"] = 0, 0
	}
	l.allocs(sample, L)
	l.kernels(L)

	if err := layerBenches(cfg, L); err != nil {
		return err
	}
	return l.writeSpans(cfg, len(sample))
}

// allocs counts heap allocations per search at the http and engine layers:
// the sample's searches once more, between two reads of the allocator's
// counters.
func (l *ladder) allocs(sample []op, L map[string]float64) {
	var searches []op
	for _, o := range sample {
		if o.kind == opSearch && len(searches) < 300 {
			searches = append(searches, o)
		}
	}
	if len(searches) == 0 {
		L["http.allocs_per_search"], L["engine.allocs_per_search"] = 0, 0
		return
	}
	mw := &memWriter{h: http.Header{}}
	reqs := make([]*http.Request, len(searches))
	pqs := make([]gbkmv.PreparedQuery, len(searches))
	for i, o := range searches {
		q := l.in.pool[o.arg]
		reqs[i], _ = http.NewRequest("POST", "/collections/http/search", bytes.NewReader(searchBody(q, l.w.threshold, l.w.limit)))
		pqs[i] = l.eng.PrepareQuery(toRecord(q))
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		mw.reset()
		l.handler.ServeHTTP(mw, r)
	}
	runtime.ReadMemStats(&m1)
	for _, pq := range pqs {
		pq.SearchScored(l.w.threshold, l.w.limit)
	}
	runtime.ReadMemStats(&m2)
	L["http.allocs_per_search"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(searches))
	L["engine.allocs_per_search"] = float64(m2.Mallocs-m1.Mallocs) / float64(len(searches))
}

// kernels times the sketch kernels alone, on the views and buffer words the
// sampled ops touched and on this workload's own elements.
func (l *ladder) kernels(L map[string]float64) {
	const reps = 20
	if len(l.pairs) > 0 {
		keys := 0
		for _, pr := range l.pairs {
			keys += pr[0].K() + pr[1].K()
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, pr := range l.pairs {
				kernelSink += gkmv.IntersectViews(pr[0], pr[1]).KInter
			}
		}
		L["kernel.intersect_ns_per_pair"] = float64(time.Since(t0)) / float64(reps*len(l.pairs))
		L["kernel.intersect_keys_per_pair"] = float64(keys) / float64(len(l.pairs))
		bm := bitmap.New(max(1, l.ix.BufferBits()))
		for i := 0; i < bm.Len(); i += 3 {
			bm.Set(i)
		}
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			for _, ws := range l.words {
				kernelSink += bm.AndCountWords(ws)
			}
		}
		L["kernel.andcount_ns_per_word"] = float64(time.Since(t0)) / float64(reps*len(l.words)*max(1, bm.Words()))
	} else {
		L["kernel.intersect_ns_per_pair"], L["kernel.intersect_keys_per_pair"], L["kernel.andcount_ns_per_word"] = 0, 0, 0
	}
	elems := 0
	t0 := time.Now()
	for _, r := range l.in.records[:min(len(l.in.records), 20000)] {
		for _, e := range r {
			if hash.UnitHash(hash.Element(e), 0) < 0 {
				kernelSink++
			}
		}
		elems += len(r)
	}
	L["kernel.hash_ns_per_elem"] = float64(time.Since(t0)) / float64(max(1, elems))
	// selectk: the budget-th smallest of as many hash values as the build
	// selects its threshold from.
	vals := make([]float64, 0, elems)
	for _, r := range l.in.records[:min(len(l.in.records), 20000)] {
		for _, e := range r {
			vals = append(vals, hash.UnitHash(hash.Element(e), 0))
		}
	}
	work := make([]float64, len(vals))
	t0 = time.Now()
	for r := 0; r < 5; r++ {
		copy(work, vals)
		if selectk.Float64s(work, len(work)/10) < 0 {
			kernelSink++
		}
	}
	L["kernel.selectk_ns_per_elem"] = float64(time.Since(t0)) / float64(5*max(1, len(vals)))
}

// writeSpans writes the span file and checks the ladder's own invariant:
// per op, the self times sum to the outermost span.
func (l *ladder) writeSpans(cfg runConfig, ops int) error {
	child := make([]int, len(l.spans))
	for i := range child {
		child[i] = -1
	}
	for i, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] = i
		}
	}
	for i, s := range l.spans {
		if s.Parent >= 0 {
			continue
		}
		sum := int64(0)
		for j := i; j >= 0; j = child[j] {
			self := l.spans[j].dur()
			if child[j] >= 0 {
				self -= l.spans[child[j]].dur()
			}
			sum += self
		}
		if sum != s.dur() {
			return fmt.Errorf("trace: op %d: self times sum to %d ns, outermost span is %d ns", s.Op, sum, s.dur())
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.out, "trace-"+cfg.w.name+".json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "ops": ops, "layers": ladderLayers, "spans": l.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
