package gbkmv

import (
	"slices"
	"testing"
)

// TestLSHEnsembleSignsEachRecordOnce: the lshensemble engine rebuilds its
// ensemble on every batch, and each rebuild signs the batch's records and no
// others — a record's signature array is made once and kept, however many
// batches follow.
func TestLSHEnsembleSignsEachRecordOnce(t *testing.T) {
	rec := func(i int) Record {
		elems := make([]Element, 0, 20)
		for j := 0; j < 20; j++ {
			elems = append(elems, Element(i*7+j*3))
		}
		return NewRecord(elems)
	}
	var records []Record
	for i := 0; i < 50; i++ {
		records = append(records, rec(i))
	}
	e, err := NewEngine("lshensemble", records, EngineOptions{NumHashes: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*baseline).backend.(*lshensembleBackend)
	seen := map[*uint64]bool{}
	// signed counts the signature arrays made since the last call.
	signed := func() int {
		n := 0
		for _, sig := range b.sigs {
			if !seen[&sig[0]] {
				seen[&sig[0]] = true
				n++
			}
		}
		return n
	}
	if got := signed(); got != 50 || len(b.sigs) != 50 {
		t.Fatalf("the build signed %d of 50 records (%d signatures kept)", got, len(b.sigs))
	}
	e.AddBatch([]Record{rec(50), rec(51), rec(52)})
	if got := signed(); got != 3 || len(b.sigs) != 53 {
		t.Errorf("a batch of 3 signed %d records (%d signatures kept)", got, len(b.sigs))
	}
	e.AddBatch([]Record{rec(53)})
	if got := signed(); got != 1 || len(b.sigs) != 54 {
		t.Errorf("an insert of 1 signed %d records (%d signatures kept)", got, len(b.sigs))
	}
	for i, sig := range b.sigs {
		if &sig[0] != &b.ens.Signatures()[i][0] || !slices.Equal(sig, b.ens.Sign(e.(*baseline).records[i])) {
			t.Fatalf("record %d: the engine's signature is not the one the ensemble indexed", i)
		}
	}
}
