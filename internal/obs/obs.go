// Package obs is the dependency-free observability core of gbkmvd: atomic
// counters and gauges, sharded log-bucketed latency histograms with
// percentile extraction, and a named metric registry that renders the
// Prometheus text exposition format behind GET /metrics.
//
// The package is deliberately small and stdlib-only. Hot-path operations
// (Counter.Add, Histogram.Observe) are a handful of atomic instructions and
// never allocate; everything string-shaped (label resolution, exposition)
// happens either once at wiring time or at scrape time. Callers on hot paths
// resolve labeled children once (Vec.With) and keep the returned pointer.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use, but counters are normally created through a Registry so they
// appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the counter's value. It exists for scrape hooks that mirror
// an external source-of-truth total (e.g. a per-index build counter) into
// the registry; normal producers use Add/Inc and never go backwards.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. The zero value is ready
// to use.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds v to the float64 stored as bits in u.
func addFloat(u *atomic.Uint64, v float64) {
	for {
		old := u.Load()
		if u.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}
