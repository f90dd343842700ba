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
// else (with IndexBytes left out both digests are the parent's). A change to
// any of them is a change to some engine's snapshot bytes or results, and has
// to be explained, not re-pasted.
var engineGolden = map[string]string{
	"exact":       "d9ad19907f55f9efa391fb29965f1d72e8a4ba0cfceb42daa5fa430962ecd273",
	"gbkmv":       "5d52de845913b94191c23c6abbc465a88edc3721c9f735fdbcc692ecb236c74d",
	"gkmv":        "a57c4d2b83f93232d42d6db7560af1d33da5925d7f5953b7ae6f38a3413b9f1e",
	"kmv":         "0377aa6b2eef741b7c8138b920bc05298ddf2f59c9b071c9f363d8af5197be2b",
	"lshensemble": "335afc22f5ce77e20aca486978883682667b524cbb7d12ac83a535a19857c422",
	"lshforest":   "f6a61ba9c385e3ac124207f5477aa2c55ce370308f310f6ed3fe8e69844ac92a",
	"minhash":     "f41526f973cb3686dd1807f2779ec48fc1c94f1519c976888aeeccdc40cf6632",
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
