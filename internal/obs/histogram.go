package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-boundary, log-bucketed histogram in the HDR spirit:
// observations land in the first bucket whose upper bound is ≥ the value
// (Prometheus "le" semantics), bucket layouts are fixed at construction so
// snapshots merge by plain addition, and quantiles are extracted by
// interpolating inside the target bucket.
//
// Observe is lock-free: each call does one bucket binary search plus three
// atomic operations on one of a small set of shards, so concurrent request
// handlers never serialize on a histogram. Shard selection uses the
// runtime's per-thread fast random source — no shared counter, no
// goroutine-id tricks — which spreads the count/sum cache lines across
// cores under load.
//
// Counts are the source of truth: a snapshot's total is the sum of its
// bucket counts, so the exposed +Inf cumulative bucket always equals
// _count exactly, even when a snapshot races concurrent observations.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	shards [histShards]histShard
}

// histShards is the shard count (power of two). Four shards are enough to
// take a contended histogram off the profile: the bucket counters already
// spread naturally, only count/sum collide, and beyond a few shards the
// snapshot cost grows for no measurable gain.
const histShards = 4

type histShard struct {
	sum    atomic.Uint64 // float64 bits of the value sum, CAS-added
	_      [56]byte      // keep shards off each other's cache line
	counts []atomic.Uint64
}

// newHistogram builds a histogram over the given ascending bucket bounds.
// The bounds slice is retained. Registries validate bounds before calling.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return h
}

// validBounds reports whether bounds is non-empty, finite and strictly
// ascending.
func validBounds(bounds []float64) bool {
	if len(bounds) == 0 {
		return false
	}
	prev := math.Inf(-1)
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || b <= prev {
			return false
		}
		prev = b
	}
	return true
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is ≥ v; len(bounds) is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	sh := &h.shards[rand.Uint64()&(histShards-1)]
	sh.counts[i].Add(1)
	addFloat(&sh.sum, v)
}

// Snapshot is a point-in-time copy of a histogram. Counts has one entry per
// bound plus the trailing +Inf bucket.
type Snapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64  // total observations == sum(Counts)
	Sum    float64 // sum of observed values
}

// Snapshot merges the shards into one consistent view. Count is derived
// from the bucket counts, so cumulative-bucket/count invariants hold exactly
// even under concurrent Observe calls; Sum may trail by in-flight
// observations.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Sum += math.Float64frombits(sh.sum.Load())
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}

// LatencyBuckets is the fixed latency bucket layout used by every duration
// histogram in the system: five log-spaced buckets per decade (factor
// 10^(1/5) ≈ 1.58) from 1µs to 10s, in seconds, 36 bounds total. One shared
// layout keeps every latency histogram mergeable and keeps exposition
// cardinality predictable (36 le series + Inf per histogram child).
var LatencyBuckets = latencyBuckets()

func latencyBuckets() []float64 {
	const perDecade = 5
	b := make([]float64, 0, 7*perDecade+1)
	for e := -6; e <= 0; e++ {
		for i := 0; i < perDecade; i++ {
			b = append(b, math.Pow(10, float64(e)+float64(i)/perDecade))
		}
	}
	return append(b, 10)
}

// CountBuckets is the fixed layout for size-shaped histograms (commit-group
// members, batch query counts, search candidates): powers of two from 1 to
// 2^20.
var CountBuckets = countBuckets()

func countBuckets() []float64 {
	b := make([]float64, 21)
	for i := range b {
		b[i] = float64(uint64(1) << i)
	}
	return b
}
