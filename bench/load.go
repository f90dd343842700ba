package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// checker validates every answer of a run and keeps what later steps need:
// the server's id for each inserted record, and a checksum of each query's
// first answer so that a repeat can be compared with it.
type checker struct {
	w       *spec
	built   int // records in the collection as built
	maxID   int // built + every record the run will ever insert
	mine    []atomic.Int32
	stable  bool // no insert can run concurrently: a repeated query must repeat its answer
	seen    [2][]atomic.Uint64
	failed  atomic.Int64
	firstMu sync.Mutex
	first   string // first failure, for the log
}

func newChecker(w *spec, in *inputs) *checker {
	c := &checker{w: w, built: len(in.records), maxID: len(in.records) + len(in.inserts)}
	// mine[serverID] = the harness's index of that record (position in
	// records ++ inserts), -1 until the insert that created it is acked.
	c.mine = make([]atomic.Int32, c.maxID)
	for i := range c.mine {
		v := int32(-1)
		if i < c.built {
			v = int32(i)
		}
		c.mine[i].Store(v)
	}
	for k := range c.seen {
		c.seen[k] = make([]atomic.Uint64, len(in.pool))
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.firstMu.Lock()
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
	c.firstMu.Unlock()
}

// check validates one answer: status, shape, order, range, threshold, and —
// where nothing can have changed in between — equality with the first answer
// to the same query.
func (c *checker) check(o op, status int, body []byte, scratch []int32) []int32 {
	if status != 200 {
		c.fail("%v #%d: status %d: %.200s", o.kind, o.arg, status, body)
		return scratch
	}
	if o.kind == opSnapshot {
		return scratch
	}
	a, ok := parseAnswer(body, scratch)
	if !ok {
		c.fail("%v #%d: unparseable answer %.200s", o.kind, o.arg, body)
		return a.ids
	}
	for _, id := range a.ids {
		if id < 0 || int(id) >= c.maxID {
			c.fail("%v #%d: id %d out of range [0,%d)", o.kind, o.arg, id, c.maxID)
			return a.ids
		}
	}
	switch o.kind {
	case opInsert:
		if len(a.ids) != c.w.insertBatch {
			c.fail("insert #%d: %d ids for %d records", o.arg, len(a.ids), c.w.insertBatch)
			return a.ids
		}
		for j, id := range a.ids {
			if int(id) < c.built || !c.mine[id].CompareAndSwap(-1, int32(c.built)+o.arg+int32(j)) {
				c.fail("insert #%d: id %d was already assigned", o.arg, id)
			}
		}
		return a.ids
	case opSearch:
		switch {
		case a.count < len(a.ids):
			c.fail("search #%d: count %d < %d hits", o.arg, a.count, len(a.ids))
		case !a.ascending:
			c.fail("search #%d: hit ids not ascending", o.arg)
		case c.w.limit > 0 && len(a.ids) > c.w.limit:
			c.fail("search #%d: %d hits over limit %d", o.arg, len(a.ids), c.w.limit)
		case len(a.ids) > 0 && a.min < c.w.threshold:
			c.fail("search #%d: estimate %g under threshold %g", o.arg, a.min, c.w.threshold)
		}
	case opTopK:
		switch {
		case len(a.ids) > c.w.k:
			c.fail("topk #%d: %d hits for k=%d", o.arg, len(a.ids), c.w.k)
		case !a.bestFirst:
			c.fail("topk #%d: hits not best first", o.arg)
		}
	}
	if c.stable {
		sum := (a.sum^uint64(a.count+1))<<1 | 1
		slot := &c.seen[o.kind][o.arg]
		if old := slot.Load(); old == 0 {
			slot.Store(sum)
		} else if old != sum {
			c.fail("%v #%d: a repeated query changed its answer with no insert in between", o.kind, o.arg)
		}
	}
	return a.ids
}

// resetSeen forgets first answers; called when the collection changes
// between two insert-free phases.
func (c *checker) resetSeen() {
	for k := range c.seen {
		for i := range c.seen[k] {
			c.seen[k][i].Store(0)
		}
	}
}

// sample is one answered request: its place in the schedule, when it was
// sent (since the phase began) and how long the answer took.
type sample struct {
	n, arg   int32
	start, d int64
}

// phase is what one closed-loop run of a schedule measured.
type phase struct {
	ops   [4][]sample // by opKind, in schedule order
	lat   [4][]int64  // the same durations, sorted
	wall  time.Duration
	bytes int64
}

func (p *phase) count() (n int) {
	for _, l := range p.lat {
		n += len(l)
	}
	return n
}

// finish sorts what the clients collected.
func (p *phase) finish() {
	for k := range p.ops {
		slices.SortFunc(p.ops[k], func(a, b sample) int { return int(a.n - b.n) })
		p.lat[k] = make([]int64, len(p.ops[k]))
		for i, s := range p.ops[k] {
			p.lat[k][i] = s.d
		}
		slices.Sort(p.lat[k])
	}
}

// quiet is one op kind's latency and rate with the host's interference
// filtered out as far as the workload allows.
//
// The host this runs on is shared: the same binary on the same inputs reads
// 15-25% apart from run to run, and as far apart from one half-second to the
// next inside a run, because neighbours take cache and memory bandwidth. That
// interference only ever adds time, and quiet moments are short. Two
// estimators use that (README, "Quiet estimators", has the measurements):
//
//   - quietSlices, for traffic whose requests do not repeat exactly: the
//     phase is cut into consecutive slices of sliceOps requests, each slice is
//     summarised on its own, and the slice at the 10th percentile from the
//     good end is reported. Everything the program itself does in a slice —
//     GC, fsync, lock waits — stays in.
//   - quietRepeats, for requests that repeat (the paper protocol's passes,
//     the popular queries of a Zipf mix, a read probe's few queries, the
//     library's insert rounds): each request's lowest latency over its
//     repeats, then order statistics across all requests. It needs one quiet
//     moment per request instead of a quiet slice, and repeats within 2-3%
//     where there are twenty or more repeats. What it leaves out is what
//     varies between repeats of one request: a query that hits the cache on
//     some repeats and misses on others counts at its hit cost.
type quiet struct {
	p50, p95 int64   // ns
	rate     float64 // requests per second
}

const sliceOps = 250

func (p *phase) quietSlices(k opKind) quiet {
	ops := p.ops[k]
	if len(ops) == 0 {
		return quiet{}
	}
	n := max(len(ops)/sliceOps, 1)
	p50s, p95s, rates := make([]int64, n), make([]int64, n), make([]float64, n)
	var l []int64
	for i := range p50s {
		part := ops[i*len(ops)/n : (i+1)*len(ops)/n]
		l = l[:0]
		end := int64(0)
		for _, s := range part {
			l = append(l, s.d)
			end = max(end, s.start+s.d)
		}
		slices.Sort(l)
		p50s[i], p95s[i] = pct(l, 0.5), pct(l, 0.95)
		rates[i] = float64(len(part)) / (float64(end-part[0].start) / 1e9)
	}
	slices.Sort(p50s)
	slices.Sort(p95s)
	slices.Sort(rates)
	return quiet{p50: p50s[n/10], p95: p95s[n/10], rate: rates[n-1-n/10]}
}

func (p *phase) quietRepeats(k opKind) quiet {
	best := map[int32]int64{}
	for _, s := range p.ops[k] {
		if b, ok := best[s.arg]; !ok || s.d < b {
			best[s.arg] = s.d
		}
	}
	// Every request counts, at its query's quietest: a popular query weighs
	// as much in the percentiles as it does in the traffic.
	var q quiet
	l := make([]int64, 0, len(p.ops[k]))
	for _, s := range p.ops[k] {
		l = append(l, best[s.arg])
	}
	slices.Sort(l)
	if len(l) > 0 {
		q.p50, q.p95, q.rate = pct(l, 0.5), pct(l, 0.95), 1e9/mean(l)
	}
	return q
}

// drive runs sched closed-loop: clients goroutines, one keep-alive
// connection each, each taking the next unsent op when its previous one has
// been answered.
func drive(addr string, clients int, sched []op, rq *requests, c *checker) (*phase, error) {
	conns := make([]*rawConn, clients)
	for i := range conns {
		rc, err := dialRaw(addr)
		if err != nil {
			return nil, err
		}
		defer rc.close()
		conns[i] = rc
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	parts := make([]phase, clients)
	errs := make([]error, clients)
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc, p := conns[i], &parts[i]
			var scratch []int32
			for {
				n := int(next.Add(1)) - 1
				if n >= len(sched) {
					return
				}
				o := sched[n]
				t0 := time.Now()
				status, body, err := rc.do(rq.of(o))
				d := time.Since(t0)
				if err != nil {
					// A transport error loses the connection's framing; the
					// run cannot go on to measure anything meaningful.
					errs[i] = fmt.Errorf("%v #%d: %w", o.kind, o.arg, err)
					return
				}
				p.ops[o.kind] = append(p.ops[o.kind], sample{int32(n), o.arg, int64(t0.Sub(start)), int64(d)})
				p.bytes += int64(len(body))
				scratch = c.check(o, status, body, scratch)
			}
		}(i)
	}
	wg.Wait()
	out := &phase{wall: time.Since(start)}
	for i := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for k := range out.ops {
			out.ops[k] = append(out.ops[k], parts[i].ops[k]...)
		}
		out.bytes += parts[i].bytes
	}
	out.finish()
	return out, nil
}
