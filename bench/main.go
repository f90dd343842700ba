// Command bench is the repo's benchmark: one seeded harness, four workloads,
// end-to-end metrics and a per-layer trace. See README.md.
//
//	bench --workload serve-read --seed 1 --seconds 10 --trace 0   one run, one JSON line (BENCHMARK.json's contract)
//	bench -seed 1 [-reps 3] [-trace]                              every workload, medians of reps, one JSON document
//	bench -compare a.json b.json                                  apply BENCHMARK.json's bounds to two documents
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	cleanup()
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON line (default: every workload)")
		seed     = flag.Uint64("seed", 1, "the only source of randomness")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured phase; scales the fixed op counts")
		trace    = flag.String("trace", "0", "1 = the traced run: per-layer metrics and span files instead of end-to-end metrics")
		reps     = flag.Int("reps", 3, "runs per workload when no -workload is given")
		smoke    = flag.Bool("smoke", false, "tiny sizes (2k records, 2k ops, 1 build): checks the harness, measures nothing")
		compare  = flag.Bool("compare", false, "compare two result documents: bench -compare a.json b.json")
		catalog  = flag.Bool("catalogue", false, "print BENCHMARK.json as the harness's catalogue defines it, and exit")
		bin      = flag.String("gbkmvd", "", "gbkmvd binary (default: built once into the work directory)")
		work     = flag.String("work", ".bench_build", "scratch directory for binaries and data directories")
		out      = flag.String("out", "", "directory for trace-<workload>.json (default: <work>/out)")
		spec     = flag.String("benchmark", "", "path of BENCHMARK.json (default: found next to the bench directory)")
	)
	flag.Parse()
	if *catalog {
		os.Stdout.Write(catalogueJSON())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(runCompare(*spec, flag.Arg(0), flag.Arg(1)))
	}
	traced := *trace == "1" || *trace == "true"
	if !traced && *trace != "0" && *trace != "false" {
		fatalf("-trace wants 0 or 1, got %q", *trace)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fatalf("interrupted")
	}()
	defer cleanup()

	absWork, err := filepath.Abs(*work)
	if err != nil {
		fatalf("%v", err)
	}
	if *out == "" {
		*out = filepath.Join(absWork, "out")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: traced, work: absWork, out: *out,
		clients: min(runtime.NumCPU(), 4)}
	if cfg.bin = *bin; cfg.bin == "" {
		if cfg.bin, err = buildDaemon(absWork); err != nil {
			fatalf("%v", err)
		}
	}

	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fatalf("unknown workload %q", *workload)
		}
		if *smoke {
			w = w.smoke()
		}
		cfg.w = w
		res, err := runOnce(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		printContractLine(res, traced)
		return
	}
	doc, err := runSuite(cfg, *reps, *smoke)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatalf("%v", err)
	}
}

// runOnce is one run of one workload: client-side preparation, then the
// untraced end-to-end run or the traced per-layer run.
func runOnce(cfg runConfig) (*runResult, error) {
	if cfg.trace {
		// The traced run needs the end-to-end run only for the client layer
		// (tail percentiles, loopback, the ladder residual): one set-up and
		// half the measured phase leave its time for the ladder.
		w := *cfg.w
		w.builds = 1
		cfg.w, cfg.seconds = &w, max(1, cfg.seconds/2)
	}
	p, err := prepare(cfg.w, cfg.seed, cfg.seconds, cfg.trace)
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: %d records, %d inserts, %d+%d ops; gen %.2fs oracle %.2fs; median true hits %.0f",
		cfg.w.name, cfg.seed, len(p.in.records), len(p.in.inserts), len(p.in.main), len(p.in.probe),
		p.genS, p.oracleS, p.trueHits)
	var res *runResult
	if cfg.w.serving {
		res, err = runServing(cfg, p)
	} else {
		res, err = runPaperBatch(cfg, p)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := runTrace(cfg, p, res); err != nil {
			return nil, err
		}
	}
	if res.failed > 0 {
		logf("%s: %d of %d answers invalid; first: %s", cfg.w.name, res.failed, res.attempted, res.firstFailure)
	}
	return res, nil
}

// printContractLine prints the one JSON object BENCHMARK.json's contract
// asks for as the last line of standard output.
func printContractLine(res *runResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	metrics := map[string]value{}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			fatalf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
}

// benchDir finds the directory holding this program's go.mod, from the
// repo root or from inside bench/.
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module gbkmv/bench") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repo root or from bench/: no gbkmv/bench go.mod here")
}

// buildDaemon compiles gbkmvd once into the work directory.
func buildDaemon(work string) (string, error) {
	dir, err := benchDir()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(work, "bin", "gbkmvd")
	cmd := exec.Command("go", "build", "-o", bin, "gbkmv/cmd/gbkmvd")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building gbkmvd: %w", err)
	}
	return bin, nil
}
