package gbkmv_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"gbkmv"
)

// engineGolden is one SHA-256 per registered engine over everything the
// protocol of TestEngineGolden observes. A change to any of them is a change
// to some engine's results (or to gbkmv's snapshot bytes), and has to be
// explained, not re-pasted.
//
// gbkmv's is the value the commit before the segmented layer was deleted
// printed for the bare engine, at -cpu 1 and -cpu 4 alike — with its buffer
// rows stored in ⌈|E_H|/8⌉ bytes, which changes EngineStats' BufferBytes and
// SizeBytes and nothing else; with its posting lists in 16-bit gaps and its
// bit columns exact, which changes EngineStats' IndexBytes and nothing else;
// and in snapshot format 4, which changes the stream's version byte (3 → 4),
// drops the core index's three cost-model knobs from its options block, and
// writes BufferBits in the library's sentinels (AutoBuffer 0, NoBuffer −1,
// where format 3 held the core's −1 and 0) — a format-3 writer patched to
// write just that prints it. gbkmv's and gkmv's moved once more when the
// G-KMV keys came to be held once, as the posting lists' entries, with an
// 8-byte summary a record in place of a key arena's 4-byte offset and
// completeness byte: EngineStats' IndexBytes grows by 3m − 4 for m records,
// and the digests with IndexBytes zeroed are the commit before's. They moved
// again in snapshot format 5, whose records section codes gaps in bits, by
// class: gbkmv's through its snapshot bytes (the section, and the version
// byte of both magics) and EngineStats' RecordBytes, gkmv's through
// RecordBytes alone. With RecordBytes zeroed and each snapshot's records
// section replaced by the records it decodes to, both digests are the
// commit before's. gbkmv's moved last when the snapshot became the bare index
// stream: with the engine container's 15-byte header ("GBKMVENG", version 5,
// the name gbkmv) put back in front of each snapshot it hashes, it is the
// commit before's.
//
// The six baselines have no snapshot format: their digests cover stats and
// answers only, and are what this protocol printed on the commit before
// gbkmvd served GB-KMV only, whose engines still saved — so no baseline's
// answers moved when their persistence went.
var engineGolden = map[string]string{
	"exact":       "15f82545d959d5fa5881c1ad62825e34f4308526f849c83232d2d0392db0372f",
	"gbkmv":       "4325573ebe3cd67248255e1f8d96656a6add371e8da7ba3b2bf2f3d8b375cd13",
	"gkmv":        "a45786d1a50b60422f43f9ef2e8b14a948803e4d32eae352315044eb3e8bbe49",
	"kmv":         "5d32fb8a143122ab41d21d9594cb8cc8045c17af728b2401c2653dca97e89372",
	"lshensemble": "3508974522428993937c6de6782012bf177596a39db688447ef73db8f54d927f",
	"lshforest":   "67ae0fbc23771ac97dbaa5492ace7f098bc0a56c7e6e0890c3f8721bdcf0b3c4",
	"minhash":     "c37cf1062c490004c23c1f6648a2e9d658cf1211d74681a89c8ed8cb86aa606d",
}

// goldenCorpus is a seeded skewed corpus generated here, so the digests
// depend on nothing but math/rand's fixed sequence: 300 build records, 40 to
// insert, and 23 queries — 20 random ones, two indexed records and the first
// half of a third.
func goldenCorpus() (build, extra, queries []gbkmv.Record) {
	rng := rand.New(rand.NewSource(20))
	zipf := rand.NewZipf(rng, 1.15, 4, 1999)
	draw := func() gbkmv.Record {
		n := 5 + rng.Intn(76)
		elems := make([]gbkmv.Element, n)
		for i := range elems {
			elems[i] = gbkmv.Element(zipf.Uint64())
		}
		return gbkmv.NewRecord(elems)
	}
	all := make([]gbkmv.Record, 340)
	for i := range all {
		all[i] = draw()
	}
	for i := 0; i < 20; i++ {
		queries = append(queries, draw())
	}
	queries = append(queries, all[5], all[310], all[77][:len(all[77])/2])
	return all[:300], all[300:], queries
}

// digestEngine writes e's stats and every query answer of e into h, over the
// golden queries: each threshold search, each scored search — capped, then at
// a larger |Q| uncapped — and top-k, directly and prepared.
func digestEngine(h hash.Hash, e gbkmv.Engine, queries []gbkmv.Record) {
	fmt.Fprintf(h, "%+v", e.EngineStats())
	for _, q := range queries {
		for _, tstar := range []float64{0, 0.3, 0.7} {
			putIDs(h, e.Search(q, tstar))
			pq := e.PrepareQuery(q)
			hits, total := pq.SearchScored(tstar, 7)
			putScored(h, hits)
			putInt(h, total)
			pq.SetSize(len(q) + 3)
			hits, total = pq.SearchScored(tstar, 0)
			putScored(h, hits)
			putInt(h, total)
			putScored(h, pq.TopK(5))
		}
		putScored(h, e.SearchTopK(q, 5))
	}
}

// digestIndex writes everything observable about a GB-KMV engine into h: its
// snapshot bytes, its stats, and every query surface of the index and its
// prepared query over the golden queries. It returns the snapshot.
func digestIndex(t *testing.T, h hash.Hash, e gbkmv.Engine, queries []gbkmv.Record) []byte {
	t.Helper()
	var snap bytes.Buffer
	if err := gbkmv.SaveEngine(&snap, e); err != nil {
		t.Fatalf("SaveEngine: %v", err)
	}
	h.Write(snap.Bytes())
	fmt.Fprintf(h, "%+v", e.EngineStats())
	ix := e.(*gbkmv.Index)
	for qi, q := range queries {
		for _, tstar := range []float64{0, 0.3, 0.7} {
			putIDs(h, ix.Search(q, tstar))
			pq := ix.Prepare(q)
			hits, total := pq.SearchScored(tstar, 7)
			putScored(h, hits)
			putInt(h, total)
			pq.SetSize(len(q) + 3)
			hits, total = pq.Clone().SearchScored(tstar, 0)
			putScored(h, hits)
			putInt(h, total)
			putIDs(h, pq.Search(tstar))
		}
		putScored(h, ix.SearchTopK(q, 5))
		for i := qi; i < ix.Len(); i += 37 {
			binary.Write(h, binary.LittleEndian, math.Float64bits(ix.Estimate(q, i)))
		}
	}
	return snap.Bytes()
}

func putInt(h hash.Hash, v int) { binary.Write(h, binary.LittleEndian, int64(v)) }

func putIDs(h hash.Hash, ids []int) {
	putInt(h, len(ids))
	for _, id := range ids {
		putInt(h, id)
	}
}

func putScored(h hash.Hash, hits []gbkmv.Scored) {
	putInt(h, len(hits))
	for _, s := range hits {
		putInt(h, s.ID)
		binary.Write(h, binary.LittleEndian, math.Float64bits(s.Score))
	}
}

// TestEngineGolden pins "bit-identical across a commit" for all seven
// engines, each as built and after an AddBatch of 30 and 10 single-record
// batches (every batch rebuilds lshensemble, which is most of this test's
// time), reduced to one digest per engine and compared with the one the
// parent commit produced. gbkmv's covers its snapshot and the snapshot loaded
// back as well, and every query surface of the index; the baselines', which
// live in memory only, their answers through the Engine interface.
func TestEngineGolden(t *testing.T) {
	build, extra, queries := goldenCorpus()
	opt := gbkmv.EngineOptions{BudgetFraction: 0.2, Seed: 42}
	names := gbkmv.Engines()
	if len(names) != len(engineGolden) {
		t.Fatalf("registered engines %v, golden digests for %d", names, len(engineGolden))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			e, err := gbkmv.NewEngine(name, append([]gbkmv.Record(nil), build...), opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, grown := range []bool{false, true} {
				if grown {
					e.AddBatch(extra[:30])
					for _, r := range extra[30:] {
						e.AddBatch([]gbkmv.Record{r})
					}
				}
				if name != gbkmv.DefaultEngine {
					digestEngine(h, e, queries)
					continue
				}
				snap := digestIndex(t, h, e, queries)
				loaded, err := gbkmv.LoadEngine(bytes.NewReader(snap))
				if err != nil {
					t.Fatalf("grown=%v: LoadEngine: %v", grown, err)
				}
				digestIndex(t, h, loaded, queries)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != engineGolden[name] {
				t.Errorf("digest %s, the parent commit's is %s", got, engineGolden[name])
			}
		})
	}
}
