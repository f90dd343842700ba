package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"gbkmv/internal/dataset"
)

var updateShrinkGolden = flag.Bool("update-shrink-golden", false, "rewrite testdata/shrink_golden.txt from this build")

const shrinkGoldenPath = "testdata/shrink_golden.txt"

// shrinkSchedules are the saturated insert schedules the shrink golden pins:
// three Table II profiles at the Quick scale of internal/experiments (a
// quarter of the records, seed 42), each under its own buffer choice so that
// an automatic, a fixed and no buffer are all covered — the last the case
// where the cut lands in tie runs.
var shrinkSchedules = []struct {
	profile string
	opt     Options
}{
	{"NETFLIX", Options{BudgetFraction: 0.1, BufferBits: AutoBuffer, Seed: 3}},
	{"ENRON", Options{BudgetFraction: 0.1, BufferBits: 128, Seed: 5}},
	{"WDC", Options{BudgetFraction: 0.1, BufferBits: NoBuffer, Seed: 7}},
}

// TestShrinkGolden builds each schedule's index over 70 % of its records,
// inserts the rest one by one into the fixed budget, and writes the cut and
// the units used after every threshold shrink, then a digest of what 60
// queries answer on the grown index: every scored search's hits at t* = 0
// (every record, through the single-record estimate), 0.1 and 0.5, and a
// top-10. The golden was written before the key store changed representation,
// and any change that moves a byte of it changes a shrink or an estimate.
func TestShrinkGolden(t *testing.T) {
	var out bytes.Buffer
	for _, s := range shrinkSchedules {
		p, err := dataset.ProfileByName(s.profile)
		if err != nil {
			t.Fatal(err)
		}
		cfg := p.Config
		cfg.NumRecords /= 4
		d, err := dataset.Synthetic(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		built := len(d.Records) * 7 / 10
		ix, err := BuildIndex(&dataset.Dataset{Records: d.Records[:built], Universe: d.Universe}, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s: %d records built, cut %d, %d units of %d\n", s.profile, built, ix.cut, ix.UsedUnits(), ix.BudgetUnits())
		shrinks := 0
		for i, rec := range d.Records[built:] {
			_, before := ix.BuildCounters()
			ix.AddRecords([]dataset.Record{rec})
			if _, after := ix.BuildCounters(); after != before {
				shrinks++
				fmt.Fprintf(&out, "%s: insert %d shrinks: cut %d, %d units\n", s.profile, i, ix.cut, ix.UsedUnits())
			}
		}
		if shrinks < 10 {
			t.Fatalf("%s: %d shrinks; the schedule must shrink at least 10 times", s.profile, shrinks)
		}
		h := sha256.New()
		for _, q := range d.SampleQueries(60, 43) {
			sig := ix.Sketch(q)
			for _, tstar := range []float64{0, 0.1, 0.5} {
				hits, total := ix.SearchSigScored(sig, tstar, 0)
				binary.Write(h, binary.LittleEndian, int64(total))
				for _, hit := range hits {
					binary.Write(h, binary.LittleEndian, [2]uint64{uint64(hit.ID), math.Float64bits(hit.Score)})
				}
			}
			for _, hit := range ix.SearchTopKSig(sig, 10) {
				binary.Write(h, binary.LittleEndian, [2]uint64{uint64(hit.ID), math.Float64bits(hit.Score)})
			}
		}
		fmt.Fprintf(&out, "%s: %d shrinks, %d records, estimates %x\n", s.profile, shrinks, ix.NumRecords(), h.Sum(nil))
	}
	if *updateShrinkGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shrinkGoldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(shrinkGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("shrinks and estimates differ from %s:\n%s", shrinkGoldenPath, out.String())
	}
}
