package gbkmv_test

import (
	"bytes"
	"fmt"

	"gbkmv"
)

// engineExampleCorpus is the tiny corpus every per-engine example indexes:
// at a 100% budget all sketch engines are lossless on it, so the examples
// print exact, deterministic results.
func engineExampleCorpus() (*gbkmv.Vocabulary, []gbkmv.Record, []string) {
	voc := gbkmv.NewVocabulary()
	records := []gbkmv.Record{
		voc.Record([]string{"five", "guys", "burgers", "and", "fries"}),
		voc.Record([]string{"five", "kitchen", "berkeley"}),
		voc.Record([]string{"in", "n", "out", "burgers"}),
	}
	return voc, records, []string{"five", "guys"}
}

// searchWith builds the named engine over the example corpus and asks for
// the best record for the query through the engine-generic prepared query.
// Record 0 contains the whole query, so every backend — sketched or exact —
// ranks it first.
func searchWith(name string) {
	voc, records, query := engineExampleCorpus()
	// BudgetFraction 1 makes the KMV-family sketches lossless on this tiny
	// corpus; NumHashes 8 covers the largest record for the same effect on
	// the per-record "kmv" allocation.
	e, err := gbkmv.NewEngine(name, records, gbkmv.EngineOptions{BudgetFraction: 1, NumHashes: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	pq, err := gbkmv.PrepareTokens(e, voc, query)
	if err != nil {
		panic(err)
	}
	fmt.Println(e.EngineStats().Engine, "best:", pq.TopK(1)[0].ID)
}

// ExampleNewEngine demonstrates swapping the sketch backend under the same
// search: every registered engine indexes the same records and answers the
// same query.
func ExampleNewEngine() {
	for _, name := range []string{"gbkmv", "exact"} {
		searchWith(name)
	}
	// Output:
	// gbkmv best: 0
	// exact best: 0
}

// ExampleNewEngine_gbkmv runs the flagship GB-KMV engine: buffer + G-KMV
// sketch, the paper's own method.
func ExampleNewEngine_gbkmv() {
	searchWith("gbkmv")
	// Output: gbkmv best: 0
}

// ExampleNewEngine_gkmv runs the buffer-less G-KMV variant (Section
// IV-A(2)).
func ExampleNewEngine_gkmv() {
	searchWith("gkmv")
	// Output: gkmv best: 0
}

// ExampleNewEngine_kmv runs the classic KMV baseline (Beyer et al. 2007)
// with the equal-allocation budget of Theorem 1.
func ExampleNewEngine_kmv() {
	searchWith("kmv")
	// Output: kmv best: 0
}

// ExampleNewEngine_minhash runs the per-record MinHash-LSH estimator
// (Equation 14).
func ExampleNewEngine_minhash() {
	searchWith("minhash")
	// Output: minhash best: 0
}

// ExampleNewEngine_lshforest runs the LSH Forest baseline (Bawa et al.
// 2005): candidate retrieval from banded MinHash prefix trees.
func ExampleNewEngine_lshforest() {
	searchWith("lshforest")
	// Output: lshforest best: 0
}

// ExampleNewEngine_lshensemble runs LSH Ensemble (Zhu et al., VLDB 2016),
// the recall-leaning state-of-the-art baseline the paper compares against.
func ExampleNewEngine_lshensemble() {
	searchWith("lshensemble")
	// Output: lshensemble best: 0
}

// ExampleNewEngine_exact runs the PPjoin-style exact backend — ground truth
// at index-scan cost.
func ExampleNewEngine_exact() {
	searchWith("exact")
	// Output: exact best: 0
}

// ExampleSaveEngine round-trips the GB-KMV engine through the header-tagged
// snapshot format; LoadEngine reads the header and refuses any other engine.
func ExampleSaveEngine() {
	_, records, _ := engineExampleCorpus()
	e, err := gbkmv.NewEngine("gbkmv", records, gbkmv.EngineOptions{BudgetFraction: 1, Seed: 1})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := gbkmv.SaveEngine(&buf, e); err != nil {
		panic(err)
	}
	loaded, err := gbkmv.LoadEngine(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(loaded.EngineName(), loaded.Len())
	// Output: gbkmv 3
}
