package asymminhash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"gbkmv/internal/dataset"
)

// queryGolden is the digest of TestQueryGolden's answers. Never edit it to
// make a change pass: an answer moving is the finding.
const queryGolden = "236c4aaa349d1386b18e7ad07ae001060838306183a177e7ab9f852f35f33599"

// TestQueryGolden pins Query's answers: every candidate list, over skewed and
// flat size distributions, at the default signature shape and at one whose
// length the trees do not divide, at several thresholds, hashed in order.
func TestQueryGolden(t *testing.T) {
	h := sha256.New()
	for _, alphaSize := range []float64{1.5, 2.5} {
		d := testDataset(t, alphaSize)
		queries := append(d.SampleQueries(20, 9), dataset.Record{}, seqRecord(4990, 5010))
		for _, opt := range []Options{{Seed: 3}, {NumHashes: 100, MaxBands: 32, Seed: 4}} {
			ix, err := Build(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, tstar := range []float64{0.05, 0.3, 0.5, 0.7, 0.9, 1} {
				for _, q := range queries {
					ids := ix.Query(q, tstar)
					h.Write(binary.AppendUvarint(nil, uint64(len(ids))))
					for _, id := range ids {
						h.Write(binary.AppendUvarint(nil, uint64(id)))
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != queryGolden {
		t.Errorf("digest %s, want %s", got, queryGolden)
	}
}
