package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// document is what `bench -seed N` prints: an environment header and, per
// workload, every metric as the median of the reps with unit, direction,
// bound, sample count and the per-rep values.
type document struct {
	Env       environment             `json:"env"`
	Seed      uint64                  `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Reps      int                     `json:"reps"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Segments   int    `json:"segments"` // gbkmvd's resolved -segments default
	DataFS     string `json:"data_fs"`
	Clients    int    `json:"clients"`
}

type workloadDoc struct {
	Why       string                `json:"why"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]*metricDoc `json:"end_to_end"`
	PerLayer  map[string]*metricDoc `json:"per_layer,omitempty"`
}

type metricDoc struct {
	Value   float64   `json:"value"` // median of Reps
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Samples int       `json:"samples,omitempty"` // raw samples behind each rep's value
	Reps    []float64 `json:"reps"`
}

func environmentOf(cfg runConfig) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Segments: runtime.GOMAXPROCS(0), // gbkmvd's flag default, and the child inherits this environment
		DataFS:   fsName(cfg.work), Clients: cfg.clients, GitCommit: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// fsName names the filesystem holding dir, so that a result says whether its
// fsyncs went to a disk or to memory.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		if err = syscall.Statfs(filepath.Dir(dir), &st); err != nil {
			return "unknown"
		}
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// runSuite runs every workload reps times with the same seed and reports
// the median of the reps. With cfg.trace each rep is a traced run, and the
// per-layer metrics are reported as well.
func runSuite(cfg runConfig, reps int, smoke bool) (*document, error) {
	if smoke {
		reps = 1
	}
	doc := &document{Env: environmentOf(cfg), Seed: cfg.seed, Seconds: cfg.seconds, Reps: reps,
		Workloads: map[string]*workloadDoc{}}
	for _, w := range workloads {
		if smoke {
			w = w.smoke()
		}
		wd := &workloadDoc{Why: w.why, EndToEnd: map[string]*metricDoc{}}
		if cfg.trace {
			wd.PerLayer = map[string]*metricDoc{}
		}
		for r := 0; r < reps; r++ {
			c := cfg
			c.w = w
			res, err := runOnce(c)
			if err != nil {
				return nil, err
			}
			wd.Attempted += res.attempted
			wd.Failed += res.failed
			add := func(into map[string]*metricDoc, defs []metricDef, vals map[string]float64) error {
				for _, m := range defs {
					v, ok := vals[m.name]
					if !ok {
						return fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
					}
					if into[m.name] == nil {
						into[m.name] = &metricDoc{Unit: m.unit, Better: m.better, Bound: m.bound}
					}
					md := into[m.name]
					md.Reps = append(md.Reps, v)
					md.Value = median(md.Reps)
					md.Samples = res.samples[m.name]
				}
				return nil
			}
			if err := add(wd.EndToEnd, endToEnd, res.e2e); err != nil {
				return nil, err
			}
			if cfg.trace {
				if err := add(wd.PerLayer, perLayer, res.layer); err != nil {
					return nil, err
				}
			}
		}
		doc.Workloads[w.name] = wd
	}
	return doc, nil
}

// benchmarkJSON is the part of BENCHMARK.json the harness reads back.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	if path == "" {
		for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&struct {
		*benchmarkJSON
		Command []string `json:"command"`
		Paths   []string `json:"paths"`
	}{benchmarkJSON: &bj}); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// runCompare applies each end-to-end metric's direction and bound from
// BENCHMARK.json to two result documents (a = parent, b = change) and prints
// one row per (workload, metric):
//
//	ok          b's median is no worse than a's by more than the bound
//	improved    better by more than the bound, and every rep of b beats every rep of a
//	regressed   worse by more than the bound, and every rep of b is worse than every rep of a
//	unresolved  the medians differ by more than the bound but the per-rep ranges overlap
//
// It returns 1 when any row regressed.
func runCompare(specPath, pathA, pathB string) int {
	bj, err := readBenchmarkJSON(specPath)
	if err != nil {
		fatalf("%v", err)
	}
	var docs [2]document
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &docs[i])
		}
		if err != nil {
			fatalf("%s: %v", p, err)
		}
	}
	code := 0
	fmt.Printf("%-12s %-22s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range bj.Workloads {
		wa, wb := docs[0].Workloads[w.Name], docs[1].Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-12s missing from one of the documents\n", w.Name)
			code = 1
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("%-12s %-22s %12d %12d %8s %6s  regressed\n", w.Name, "failed", wa.Failed, wb.Failed, "", "0")
			code = 1
		}
		for _, m := range bj.EndToEnd {
			a, b := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if a == nil || b == nil || a.Value == 0 {
				fmt.Printf("%-12s %-22s missing from one of the documents\n", w.Name, m.Name)
				code = 1
				continue
			}
			verdict := judge(m, a, b)
			if verdict == "regressed" {
				code = 1
			}
			fmt.Printf("%-12s %-22s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, a.Value, b.Value, 100*(b.Value-a.Value)/a.Value, 100*m.Bound, verdict)
		}
	}
	return code
}

// judge is one row's verdict: b against a under m's direction and bound.
func judge(m benchmarkMetric, a, b *metricDoc) string {
	// On a lower-is-better axis, so that "worse" always means "greater".
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	flip := func(v []float64) (lo, hi float64) {
		lo, hi = sign*slices.Min(v), sign*slices.Max(v)
		return min(lo, hi), max(lo, hi)
	}
	worse := sign * (b.Value - a.Value) / a.Value
	loA, hiA := flip(a.Reps)
	loB, hiB := flip(b.Reps)
	switch {
	case worse > m.Bound && loB > hiA:
		return "regressed"
	case -worse > m.Bound && hiB < loA:
		return "improved"
	case worse > m.Bound || -worse > m.Bound:
		return "unresolved"
	}
	return "ok"
}

// catalogueJSON renders BENCHMARK.json from the harness's own catalogue;
// smoke_test.go checks that the committed file says the same.
func catalogueJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds int               `json:"run_seconds"`
		Workloads  []workload        `json:"workloads"`
		EndToEnd   []benchmarkMetric `json:"end_to_end"`
		PerLayer   []layerMetric     `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, benchmarkMetric{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerMetric{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
