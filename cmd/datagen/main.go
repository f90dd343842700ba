// Command datagen generates the synthetic datasets used by the reproduction
// and prints their Table II-style statistics.
//
// Usage:
//
//	datagen -profile NETFLIX
//	datagen -profile all
//	datagen -records 10000 -universe 50000 -a1 1.2 -a2 2.5 -min 10 -max 500
package main

import (
	"flag"
	"fmt"
	"os"

	"gbkmv/internal/dataset"
)

func main() {
	var (
		profile  = flag.String("profile", "", "Table II profile name, or 'all'")
		seed     = flag.Int64("seed", 42, "generation seed")
		records  = flag.Int("records", 1000, "custom: number of records")
		universe = flag.Int("universe", 10000, "custom: distinct element ids")
		a1       = flag.Float64("a1", 1.1, "custom: element-frequency Zipf exponent")
		a2       = flag.Float64("a2", 2.5, "custom: record-size power-law exponent")
		minSize  = flag.Int("min", 10, "custom: smallest record size")
		maxSize  = flag.Int("max", 500, "custom: largest record size")
	)
	flag.Parse()

	emit := func(name string, d *dataset.Dataset) {
		st, err := d.ComputeStats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-9s records=%d avgLen=%.1f distinct=%d totalElems=%d α1-fit=%.2f α2-fit=%.2f\n",
			name, st.NumRecords, st.AvgRecordLen, st.DistinctElements,
			st.TotalElements, st.AlphaFreq, st.AlphaSize)
	}

	switch {
	case *profile == "all":
		for _, p := range dataset.Profiles() {
			d, err := p.Generate(*seed)
			if err != nil {
				fatal(err)
			}
			emit(p.Name, d)
		}
	case *profile != "":
		p, err := dataset.ProfileByName(*profile)
		if err != nil {
			fatal(err)
		}
		d, err := p.Generate(*seed)
		if err != nil {
			fatal(err)
		}
		emit(p.Name, d)
	default:
		cfg := dataset.SyntheticConfig{
			NumRecords: *records, Universe: *universe,
			AlphaFreq: *a1, AlphaSize: *a2,
			MinSize: *minSize, MaxSize: *maxSize,
		}
		d, err := dataset.Synthetic(cfg, *seed)
		if err != nil {
			fatal(err)
		}
		emit("custom", d)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
