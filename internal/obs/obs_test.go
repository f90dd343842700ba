package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	c.Set(2)
	if got := c.Value(); got != 2 {
		t.Fatalf("counter after Set = %d, want 2", got)
	}

	var g Gauge
	g.Set(1.5)
	g.Set(1.0)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1.0", got)
	}
}

func TestLatencyBucketLayout(t *testing.T) {
	b := LatencyBuckets
	if len(b) != 36 {
		t.Fatalf("len(LatencyBuckets) = %d, want 36", len(b))
	}
	if !validBounds(b) {
		t.Fatal("LatencyBuckets not strictly ascending")
	}
	if math.Abs(b[0]-1e-6) > 1e-18 {
		t.Fatalf("first bound = %v, want 1e-6", b[0])
	}
	if b[len(b)-1] != 10 {
		t.Fatalf("last bound = %v, want 10", b[len(b)-1])
	}
	// Log-spaced: each step is within rounding of 10^(1/5).
	want := math.Pow(10, 0.2)
	for i := 1; i < len(b); i++ {
		ratio := b[i] / b[i-1]
		if math.Abs(ratio-want) > 1e-9 {
			t.Fatalf("bucket step %d ratio = %v, want %v", i, ratio, want)
		}
	}
}

func TestCountBucketLayout(t *testing.T) {
	b := CountBuckets
	if len(b) != 21 {
		t.Fatalf("len(CountBuckets) = %d, want 21", len(b))
	}
	if b[0] != 1 || b[20] != 1<<20 {
		t.Fatalf("CountBuckets endpoints = %v, %v; want 1, 2^20", b[0], b[20])
	}
}

func TestHistogramObserveBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// le semantics: a value exactly on a bound lands in that bound's bucket.
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 1} // ≤1: {0.5,1}; ≤2: {1.5,2}; ≤4: {3,4}; +Inf: {5}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-17) > 1e-9 {
		t.Fatalf("Sum = %v, want 17", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1e-6 * float64(1+(w*per+i)%1000))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	var cum uint64
	for _, c := range s.Counts {
		cum += c
	}
	if cum != s.Count {
		t.Fatalf("bucket sum %d != Count %d", cum, s.Count)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_requests_total", "Requests.", "endpoint", "code").With("/search", "2xx")
	c.Add(3)
	g := r.Gauge("test_temp", "Temp.")
	g.Set(1.5)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("test_func", "Func gauge.", func() float64 { return 7 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		`test_requests_total{endpoint="/search",code="2xx"} 3`,
		"# TYPE test_temp gauge",
		"test_temp 1.5",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55",
		"test_latency_seconds_count 3",
		"test_func 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "name").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{name="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped label missing %q:\n%s", want, sb.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	r.Counter("dup_total", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name should panic")
		}
	}()
	r.Counter("bad name", "")
}

func TestVecRemove(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rm_total", "", "c")
	v.With("gone").Inc()
	v.Remove("gone")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "gone") {
		t.Fatalf("removed child still exposed:\n%s", sb.String())
	}
}

func TestOnScrapeHook(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hooked_total", "")
	n := uint64(0)
	r.OnScrape(func() { n += 10; c.Set(n) })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hooked_total 10") {
		t.Fatalf("hook did not run before exposition:\n%s", sb.String())
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total", "process_uptime_seconds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime metrics missing %q:\n%s", want, out)
		}
	}
}
