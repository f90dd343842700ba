package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogueMatchesBenchmarkJSON: the committed BENCHMARK.json and the
// harness's catalogue name the same workloads and metrics with the same
// units, directions and bounds — in both directions, since the file is
// compared whole.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := catalogueJSON(); !bytes.Equal(committed, want) {
		t.Errorf("BENCHMARK.json differs from the harness's catalogue; regenerate it with `go run . -catalogue > ../BENCHMARK.json`")
	}
	bj, err := readBenchmarkJSON(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds || len(bj.Workloads) != len(workloads) ||
		len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json: %d s, %d workloads, %d + %d metrics; catalogue: %d s, %d, %d + %d",
			bj.RunSeconds, len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer),
			defaultSeconds, len(workloads), len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range bj.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that every metric of the catalogue comes out finite (and, end to
// end, non-zero). The serving workloads spawn a real gbkmvd, so -short keeps
// to the library workload.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	t.Cleanup(cleanup)
	cfg := runConfig{seed: 1, seconds: defaultSeconds, work: work, out: filepath.Join(work, "out"), clients: 2}
	if !testing.Short() {
		t.Chdir("..") // buildDaemon looks for bench/go.mod
		bin, err := buildDaemon(work)
		if err != nil {
			t.Fatal(err)
		}
		cfg.bin = bin
	}
	for _, w := range workloads {
		if w.serving && testing.Short() {
			continue
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				c := cfg
				c.w, c.trace = w.smoke(), traced
				res, err := runOnce(c)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%d of %d answers invalid: %s", res.failed, res.attempted, res.firstFailure)
				}
				for _, m := range endToEnd {
					if v, ok := res.e2e[m.name]; !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
						t.Errorf("end-to-end metric %s = %v (measured: %v)", m.name, v, ok)
					}
				}
				if !traced {
					return
				}
				for _, m := range perLayer {
					if v, ok := res.layer[m.name]; !ok || math.IsInf(v, 0) || math.IsNaN(v) {
						t.Errorf("per-layer metric %s = %v (measured: %v)", m.name, v, ok)
					}
				}
				for name := range res.layer {
					if !strings.Contains(name, ".") {
						t.Errorf("per-layer metric %s has no layer prefix", name)
					}
				}
				if _, err := os.Stat(filepath.Join(c.out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("no span file: %v", err)
				}
			})
		}
	}
}

// TestRawConn: the hand-rolled client reads both framings net/http's server
// produces — Content-Length for small bodies, chunked for large ones — and
// keeps the connection usable across them.
func TestRawConn(t *testing.T) {
	big := strings.Repeat("x", 10000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Write([]byte("small"))
		case "/big":
			w.Write([]byte(big)) // over net/http's 2 KiB buffer: chunked
		case "/flush":
			w.Write([]byte("ab"))
			w.(http.Flusher).Flush()
			w.Write([]byte("cd"))
		default:
			http.Error(w, "nope", http.StatusTeapot)
		}
	}))
	defer srv.Close()
	rc, err := dialRaw(srv.Listener.Addr().(*net.TCPAddr).String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.close()
	for _, tc := range []struct {
		path, body string
		status     int
	}{{"/small", "small", 200}, {"/big", big, 200}, {"/flush", "abcd", 200}, {"/other", "nope\n", 418}, {"/small", "small", 200}} {
		status, body, err := rc.do(buildRequest("POST", tc.path, []byte(`{}`)))
		if err != nil || status != tc.status || string(body) != tc.body {
			t.Fatalf("%s: status %d, %d bytes, err %v; want %d, %d bytes", tc.path, status, len(body), err, tc.status, len(tc.body))
		}
	}
}

func TestParseAnswer(t *testing.T) {
	a, ok := parseAnswer([]byte(`{"count":7,"hits":[{"id":3,"estimate":0.75},{"id":9,"estimate":0.5}]}`), nil)
	if !ok || a.count != 7 || len(a.ids) != 2 || a.ids[1] != 9 || a.min != 0.5 || !a.ascending || !a.bestFirst {
		t.Errorf("search answer parsed as %+v, %v", a, ok)
	}
	a, ok = parseAnswer([]byte(`{"hits":[{"id":9,"estimate":0.5},{"id":3,"estimate":0.75}]}`), nil)
	if !ok || a.count != -1 || a.ascending || a.bestFirst {
		t.Errorf("unordered top-k answer parsed as %+v, %v", a, ok)
	}
	a, ok = parseAnswer([]byte("{\"ids\":[50000,50001]}\n"), nil)
	if !ok || len(a.ids) != 2 || a.ids[0] != 50000 {
		t.Errorf("insert answer parsed as %+v, %v", a, ok)
	}
	if a, ok = parseAnswer([]byte(`{"count":0,"hits":[]}`), nil); !ok || len(a.ids) != 0 {
		t.Errorf("empty answer parsed as %+v, %v", a, ok)
	}
	for _, bad := range []string{``, `{"error":"x"}`, `{"count":1,"hits":[{"id":1}]}`, `{"hits":[{"id":1,"estimate":x}]}`} {
		if _, ok := parseAnswer([]byte(bad), nil); ok {
			t.Errorf("%q parsed as valid", bad)
		}
	}
}

func TestQuietEstimators(t *testing.T) {
	// 40 slices of sliceOps identical requests; every slice but three is
	// slowed by a neighbour. The slice at the tenth percentile is a clean one.
	p := &phase{}
	at := int64(0)
	for i := 0; i < 40*sliceOps; i++ {
		d := int64(100)
		if s := i / sliceOps; s%10 != 3 {
			d = 100 + int64(s)
		}
		p.ops[opSearch] = append(p.ops[opSearch], sample{int32(i), int32(i % 50), at, d})
		at += d
	}
	p.finish()
	if q := p.quietSlices(opSearch); q.p50 != 100 || q.p95 != 100 || math.Abs(q.rate-1e7) > 1 {
		t.Errorf("quietSlices = %+v", q)
	}
	if q := p.quietRepeats(opSearch); q.p50 != 100 || q.p95 != 100 || math.Abs(q.rate-1e7) > 1 {
		t.Errorf("quietRepeats = %+v", q)
	}
}

func TestJudge(t *testing.T) {
	lower := benchmarkMetric{Name: "lat", Better: "lower", Bound: 0.1}
	higher := benchmarkMetric{Name: "qps", Better: "higher", Bound: 0.1}
	doc := func(reps ...float64) *metricDoc { return &metricDoc{Value: median(reps), Reps: reps} }
	for _, tc := range []struct {
		m    benchmarkMetric
		a, b *metricDoc
		want string
	}{
		{lower, doc(10, 10.2, 9.9), doc(10.5, 10.4, 10.6), "ok"},
		{lower, doc(10, 10.2, 9.9), doc(12, 12.1, 11.9), "regressed"},
		{lower, doc(10, 13, 9.9), doc(12, 12.1, 11.9), "unresolved"},
		{lower, doc(10, 10.2, 9.9), doc(8, 8.1, 7.9), "improved"},
		{lower, doc(10, 10.2, 7.5), doc(8, 8.1, 7.9), "unresolved"},
		{higher, doc(100, 101, 99), doc(80, 81, 79), "regressed"},
		{higher, doc(100, 101, 99), doc(120, 121, 119), "improved"},
		{higher, doc(100, 101, 99), doc(95, 96, 94), "ok"},
		{higher, doc(100, 101, 70), doc(80, 81, 79), "unresolved"},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", tc.m.Name, tc.a.Reps, tc.b.Reps, got, tc.want)
		}
	}
}
