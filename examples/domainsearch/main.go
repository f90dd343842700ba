// Domain search over Open Data: given the value set of a query column, find
// dataset columns that contain most of it — the LSH-Ensemble application
// (Zhu et al., VLDB 2016) that motivates the paper's Canadian Open Data
// experiments. High containment of the query column in a candidate column
// means the candidate is joinable with (or a superset domain of) the query.
package main

import (
	"fmt"
	"math/rand"
	"sort"

	"gbkmv"
)

// column simulates one published dataset column: a name plus its set of
// distinct values (value ids stand in for the actual strings).
type column struct {
	name   string
	values gbkmv.Record
}

func main() {
	rng := rand.New(rand.NewSource(11))

	// Build a synthetic open-data repository: a few "authoritative" domains
	// (country codes, postal prefixes, agency ids, ...) plus columns that
	// draw subsets of them, and unrelated noise columns.
	domains := map[string][]gbkmv.Element{
		"countries": sequential(0, 250),
		"provinces": sequential(1000, 1013),
		"agencies":  sequential(2000, 2400),
		"postcodes": sequential(3000, 4600),
		"languages": sequential(5000, 5190),
	}
	names := make([]string, 0, len(domains))
	for name := range domains {
		names = append(names, name)
	}
	sort.Strings(names)
	var cols []column
	for _, name := range names {
		dom := domains[name]
		cols = append(cols, column{name: "master/" + name, values: gbkmv.NewRecord(dom)})
		// Derived columns: datasets publishing overlapping slices.
		for i := 0; i < 6; i++ {
			frac := 0.3 + 0.7*rng.Float64()
			sub := sample(rng, dom, frac)
			cols = append(cols, column{
				name:   fmt.Sprintf("dataset%02d/%s", i, name),
				values: gbkmv.NewRecord(sub),
			})
		}
	}
	// Noise columns with private value spaces.
	for i := 0; i < 20; i++ {
		lo := 10000 + i*500
		cols = append(cols, column{
			name:   fmt.Sprintf("noise/col%02d", i),
			values: gbkmv.NewRecord(sequential(lo, lo+100+rng.Intn(300))),
		})
	}

	records := make([]gbkmv.Record, len(cols))
	for i, c := range cols {
		records[i] = c.values
	}

	// Query: a user uploads a column of country codes (a 60% sample) and
	// asks which published columns can host a join with it. The search runs
	// on three interchangeable backends of the engine registry — the
	// GB-KMV sketch, LSH Ensemble (the system this application comes from),
	// and the exact index as ground truth — with no change to the query
	// code, which is the point of the pluggable Engine API.
	query := gbkmv.NewRecord(sample(rng, domains["countries"], 0.6))
	fmt.Printf("query column: %d country-code values, threshold 0.7\n", len(query))
	for _, engine := range []string{"gbkmv", "lshensemble", "exact"} {
		eng, err := gbkmv.NewEngine(engine, records, gbkmv.EngineOptions{
			BudgetFraction: 0.15,
			Seed:           99,
		})
		if err != nil {
			panic(err)
		}
		st := eng.EngineStats()
		fmt.Printf("\n[%s] %d columns indexed, %d KB of signatures\n",
			st.Engine, st.NumRecords, st.SizeBytes/1024)
		hits, _ := eng.PrepareQuery(query).SearchScored(0.7, 0)
		for _, h := range hits {
			fmt.Printf("  %.2f  %-22s (%d values)\n",
				h.Score, cols[h.ID].name, len(cols[h.ID].values))
		}
	}
}

func sequential(lo, hi int) []gbkmv.Element {
	out := make([]gbkmv.Element, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, gbkmv.Element(v))
	}
	return out
}

func sample(rng *rand.Rand, dom []gbkmv.Element, frac float64) []gbkmv.Element {
	out := make([]gbkmv.Element, 0, int(frac*float64(len(dom)))+1)
	for _, v := range dom {
		if rng.Float64() < frac {
			out = append(out, v)
		}
	}
	return out
}
