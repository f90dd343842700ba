// Command gbkmv builds a containment-search sketch over a line-oriented set
// file in memory and answers containment similarity queries against it, with
// the sketch backend selected by -engine (GB-KMV by default, or any
// registered baseline: gkmv, kmv, minhash, lshforest, lshensemble, exact).
//
// Input format: one record per line, whitespace-separated tokens, e.g.
//
//	five guys burgers and fries
//	five kitchen berkeley
//
// Usage:
//
//	gbkmv -data records.txt -query "five guys" -t 0.5
//	gbkmv -data records.txt -engine lshensemble -query "five guys" -t 0.5
//	gbkmv -data records.txt -interactive
//	gbkmv -data records.txt -stats
//
// With no -data flag, a small synthetic dataset is generated so the tool can
// be exercised standalone.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"unicode/utf8"

	"gbkmv"
	"gbkmv/internal/dataset"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "path to a line-oriented record file")
		engine      = flag.String("engine", gbkmv.DefaultEngine, "sketch engine (one of: "+strings.Join(gbkmv.Engines(), ", ")+")")
		query       = flag.String("query", "", "whitespace-separated query tokens")
		tstar       = flag.Float64("t", 0.5, "containment similarity threshold")
		budget      = flag.Float64("budget", 0.10, "sketch budget as a fraction of data size")
		seed        = flag.Uint64("seed", 42, "hash seed")
		stats       = flag.Bool("stats", false, "print sketch statistics and exit")
		interactive = flag.Bool("interactive", false, "read queries from stdin")
		maxShow     = flag.Int("max", 10, "maximum results to print")
	)
	flag.Parse()

	voc := gbkmv.NewVocabulary()
	var records []gbkmv.Record
	var lines []string

	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		records, lines, err = gbkmv.ReadRecords(f, voc)
		if err != nil {
			fatal(err)
		}
	} else {
		fmt.Println("no -data given; generating a synthetic demo dataset (1000 records)")
		d, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 1000, Universe: 5000,
			AlphaFreq: 1.1, AlphaSize: 2.5,
			MinSize: 10, MaxSize: 200,
		}, int64(*seed))
		if err != nil {
			fatal(err)
		}
		for i, r := range d.Records {
			records = append(records, r)
			lines = append(lines, fmt.Sprintf("<synthetic record %d, %d elements>", i, len(r)))
		}
	}
	if len(records) == 0 {
		fatal(fmt.Errorf("no records loaded"))
	}

	eng, err := gbkmv.NewEngine(*engine, records, gbkmv.EngineOptions{
		BudgetFraction: *budget,
		Seed:           *seed,
	})
	if err != nil {
		fatal(err)
	}
	st := eng.EngineStats()
	fmt.Printf("indexed %d records with engine %s: %d/%d budget units, %d sketch bytes",
		st.NumRecords, st.Engine, st.UsedUnits, st.BudgetUnits, st.SizeBytes)
	switch {
	case st.Tau > 0:
		fmt.Printf(", buffer r=%d bits, τ=%.4f\n", st.BufferBits, st.Tau)
	case st.NumHashes > 0:
		fmt.Printf(", k=%d hashes\n", st.NumHashes)
	default:
		fmt.Println()
	}
	if *stats {
		return
	}

	answer := func(qline string) {
		q, err := gbkmv.PrepareTokens(eng, voc, strings.Fields(qline))
		if err != nil {
			fmt.Println(err)
			return
		}
		// Each hit prints the estimate that admitted it. A limit of 0 is no
		// limit to SearchScored, and no hits to -max.
		hits, total := q.SearchScored(*tstar, *maxShow)
		fmt.Printf("%d records with estimated C(Q, X) ≥ %.2f\n", total, *tstar)
		if *maxShow <= 0 {
			hits = nil
		}
		for _, h := range hits {
			fmt.Printf("  #%-6d est=%.3f  %s\n", h.ID, h.Score, truncate(lines[h.ID], 70))
		}
		if total > len(hits) {
			fmt.Printf("... and %d more\n", total-len(hits))
		}
	}

	switch {
	case *query != "":
		answer(*query)
	case *interactive:
		fmt.Println("enter queries, one per line (ctrl-D to quit):")
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			answer(sc.Text())
		}
	default:
		fmt.Println("no -query given; try -query \"...\" or -interactive")
	}
}

// truncate shortens s to at most n runes, never splitting a multi-byte
// UTF-8 sequence.
func truncate(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	runes := []rune(s)
	return string(runes[:n-3]) + "..."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gbkmv:", err)
	os.Exit(1)
}
