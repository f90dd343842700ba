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
	"strconv"
	"testing"

	"gbkmv"
)

// engineGolden is one SHA-256 per registered engine over everything the
// protocol of TestEngineGolden observes. The values are what the commit
// before the segmented layer was deleted printed for the bare engines, at
// -cpu 1 and -cpu 4 alike — gbkmv's with its buffer rows stored in
// ⌈|E_H|/8⌉ bytes, which changes EngineStats' BufferBytes and SizeBytes and
// nothing else; gbkmv's and gkmv's with their posting lists in 16-bit gaps and
// their bit columns exact, which changes EngineStats' IndexBytes and nothing
// else (with IndexBytes left out both digests are the parent's); and every
// engine's in snapshot format 4, which changes every stream's version byte
// (3 → 4), drops the core index's three cost-model knobs from its options
// block, and writes BufferBits in the library's sentinels (AutoBuffer 0,
// NoBuffer −1, where format 3 held the core's −1 and 0 for gbkmv's and
// gkmv's) — a format-3 writer patched to write just that prints these seven.
// A change to any of them is a change to some engine's snapshot bytes or
// results, and has to be explained, not re-pasted.
var engineGolden = map[string]string{
	"exact":       "1571abcb715055f0f9c35e4ea6496cbeac88354c47a3b0fc38c926d92391a6ba",
	"gbkmv":       "d73791712aebbc9781bb8ad662d204a385cefe94bc6f70e4e6907bec486a5119",
	"gkmv":        "717a7d5f95c368dce49fc2defebc19078a08f40b813e7bc53e92fa0974c46842",
	"kmv":         "dbdfad253761e0e15868f12e49aeed7f45a167fc5e6200086057025f4e7cc99f",
	"lshensemble": "1618941a7b94c269040b8ab6ef0b92c9ce02eddf456b6cc1426c3a80fd21f8ee",
	"lshforest":   "7740127a11f5ad06e825fb2e3514060e2c181f325e716fbf3a1187dfd71d87c5",
	"minhash":     "2694fa59186505f41806098c727d0684a770503b460c244c1f5229c443511706",
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

// digestEngine writes everything observable about e into h: its snapshot
// bytes, its stats, and every query surface over the golden queries.
func digestEngine(t *testing.T, h hash.Hash, e gbkmv.Engine, queries []gbkmv.Record) []byte {
	t.Helper()
	var snap bytes.Buffer
	if err := gbkmv.SaveEngine(&snap, e); err != nil {
		t.Fatalf("SaveEngine(%s): %v", e.EngineName(), err)
	}
	h.Write(snap.Bytes())
	fmt.Fprintf(h, "%+v", e.EngineStats())
	putInt := func(v int) { binary.Write(h, binary.LittleEndian, int64(v)) }
	putIDs := func(ids []int) {
		putInt(len(ids))
		for _, id := range ids {
			putInt(id)
		}
	}
	putScored := func(hits []gbkmv.Scored) {
		putInt(len(hits))
		for _, s := range hits {
			putInt(s.ID)
			binary.Write(h, binary.LittleEndian, math.Float64bits(s.Score))
		}
	}
	for qi, q := range queries {
		for _, tstar := range []float64{0, 0.3, 0.7} {
			putIDs(e.Search(q, tstar))
			pq := e.PrepareQuery(q)
			hits, total := pq.SearchScored(tstar, 7)
			putScored(hits)
			putInt(total)
			pq.SetSize(len(q) + 3)
			hits, total = pq.Clone().SearchScored(tstar, 0)
			putScored(hits)
			putInt(total)
			putIDs(pq.Search(tstar))
		}
		putScored(e.SearchTopK(q, 5))
		for i := qi; i < e.Len(); i += 37 {
			binary.Write(h, binary.LittleEndian, math.Float64bits(e.Estimate(q, i)))
		}
	}
	return snap.Bytes()
}

// goldenTokenCorpus is records as a RecordBuilder codes them: from a
// vocabulary that already holds "0", "1", … in order, so the token of an
// element interns to that element.
func goldenTokenCorpus(t *testing.T, records []gbkmv.Record) *gbkmv.Corpus {
	t.Helper()
	voc := gbkmv.NewVocabulary()
	for e := 0; e < 2000; e++ {
		voc.ID(strconv.Itoa(e))
	}
	b := gbkmv.NewRecordBuilder(voc)
	for i, r := range records {
		for _, e := range r {
			b.Token(strconv.AppendUint(nil, uint64(e), 10))
		}
		if _, err := b.EndRecord(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	return b.Corpus()
}

// TestEngineGolden pins "bit-identical across a commit" for all seven
// engines: each engine as built and after an AddBatch of 30 and 10 single
// Adds (every Add rebuilds lshensemble, which is most of this test's time),
// the engine itself and its own snapshot loaded back — snapshot bytes, stats
// and results reduced to one digest per engine, compared with the one the
// parent commit produced. Beside the digest, each is also built from a
// RecordBuilder's Corpus and must save to the same SHA-256 as the one built
// from slices.
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
			fromCorpus, err := gbkmv.NewEngineFromCorpus(name, goldenTokenCorpus(t, build), opt)
			if err != nil {
				t.Fatalf("from a corpus: %v", err)
			}
			var fromRecords, fromTokens bytes.Buffer
			if err := gbkmv.SaveEngine(&fromRecords, e); err != nil {
				t.Fatal(err)
			}
			if err := gbkmv.SaveEngine(&fromTokens, fromCorpus); err != nil {
				t.Fatal(err)
			}
			if a, b := sha256.Sum256(fromRecords.Bytes()), sha256.Sum256(fromTokens.Bytes()); a != b {
				t.Errorf("built from a corpus the snapshot is %x, from records %x", b, a)
			}
			for _, grown := range []bool{false, true} {
				if grown {
					e.AddBatch(extra[:30])
					for _, r := range extra[30:] {
						e.Add(r)
					}
				}
				snap := digestEngine(t, h, e, queries)
				loaded, err := gbkmv.LoadEngine(bytes.NewReader(snap))
				if err != nil {
					t.Fatalf("grown=%v: LoadEngine: %v", grown, err)
				}
				digestEngine(t, h, loaded, queries)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != engineGolden[name] {
				t.Errorf("digest %s, the parent commit's is %s", got, engineGolden[name])
			}
		})
	}
}
