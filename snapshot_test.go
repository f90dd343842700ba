package gbkmv_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gbkmv"
	"gbkmv/internal/dataset"
	"gbkmv/internal/snapfmt"
)

// oldFormatStreams are what a loader of the one snapshot format must name as
// ErrSnapshotFormat rather than fail to decode: a gob stream shaped like the
// version-3 snapshots an earlier build wrote, plain garbage, nothing at all,
// and a current magic with an earlier version of the flat format (1: float64
// hash values; 2: 32-bit keys, the sketch stored beside the records) or one
// from the future.
func oldFormatStreams(t *testing.T, magic string) map[string][]byte {
	t.Helper()
	var gobV3 bytes.Buffer
	if err := gob.NewEncoder(&gobV3).Encode(struct {
		Version int
		Records [][]uint64
		Tokens  []string
	}{3, [][]uint64{{1, 2, 3}}, []string{"five", "guys"}}); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"gob-v3":  gobV3.Bytes(),
		"garbage": []byte("definitely not a snapshot"),
		"empty":   nil,
		"flat-v1": append([]byte(magic), 1, 0, 0, 0),
		"flat-v2": append([]byte(magic), 2, 0, 0, 0),
		"future":  append([]byte(magic), snapfmt.Version+1, 0, 0, 0),
	}
}

func TestLoadEngineOldFormat(t *testing.T) {
	for _, magic := range []string{"GBKMVENG", "GBKMVSEG"} {
		for name, b := range oldFormatStreams(t, magic) {
			if _, err := gbkmv.LoadEngine(bytes.NewReader(b)); !errors.Is(err, gbkmv.ErrSnapshotFormat) {
				t.Errorf("%s/%s: LoadEngine = %v, want ErrSnapshotFormat", magic, name, err)
			}
		}
	}
	// The engine container every earlier build wrote around the index
	// stream is another format, whichever loader reads it.
	container := hexFixture(t, "testdata/snapshot_format5_container.hex")
	if _, err := gbkmv.LoadEngine(bytes.NewReader(container)); !errors.Is(err, gbkmv.ErrSnapshotFormat) || errors.Is(err, snapfmt.ErrCorrupt) {
		t.Errorf("engine container: LoadEngine = %v, want ErrSnapshotFormat", err)
	}
	if _, err := gbkmv.Load(bytes.NewReader(container)); !errors.Is(err, gbkmv.ErrSnapshotFormat) || errors.Is(err, snapfmt.ErrCorrupt) {
		t.Errorf("engine container: Load = %v, want ErrSnapshotFormat", err)
	}
	// The bare index stream (Index.Save) is the engine stream: both loaders
	// take it, and SaveEngine writes it byte for byte.
	ix, err := gbkmv.Build(numericRecords(10, 50, 8), gbkmv.Options{BudgetFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	var bare, engine bytes.Buffer
	if err := ix.Save(&bare); err != nil {
		t.Fatal(err)
	}
	if err := gbkmv.SaveEngine(&engine, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare.Bytes(), engine.Bytes()) || !bytes.HasPrefix(bare.Bytes(), []byte("GBKMVIDX\x05")) {
		t.Errorf("SaveEngine wrote %.12q…, Index.Save %.12q…: want the same GBKMVIDX v5 stream", engine.Bytes(), bare.Bytes())
	}
	if _, err := gbkmv.LoadEngine(bytes.NewReader(bare.Bytes())); err != nil {
		t.Errorf("bare index stream: LoadEngine = %v", err)
	}
	if _, err := gbkmv.Load(&bare); err != nil {
		t.Errorf("bare index stream: Load = %v", err)
	}
	for name, b := range oldFormatStreams(t, "GBKMVIDX") {
		if _, err := gbkmv.Load(bytes.NewReader(b)); !errors.Is(err, gbkmv.ErrSnapshotFormat) {
			t.Errorf("%s: Load = %v, want ErrSnapshotFormat", name, err)
		}
	}
}

// TestLoadOffBoundaryThreshold: τ travels as a float64 but is always a key
// boundary (c+1)/2³² — the index compares 32-bit keys against c. A stream
// whose τ falls between two boundaries is no index's: corrupt, not a format
// question, and never silently rounded to a neighbouring cut.
func TestLoadOffBoundaryThreshold(t *testing.T) {
	ix, err := gbkmv.Build(numericRecords(40, 200, 30), gbkmv.Options{BudgetFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tau := ix.Stats().Tau
	if tau <= 0 || tau >= 1 || tau*(1<<32) != math.Trunc(tau*(1<<32)) {
		t.Fatalf("fixture τ = %v is not a key boundary inside (0, 1)", tau)
	}
	var saved bytes.Buffer
	if err := ix.Save(&saved); err != nil {
		t.Fatal(err)
	}
	stored := binary.LittleEndian.AppendUint64(nil, math.Float64bits(tau))
	if n := bytes.Count(saved.Bytes(), stored); n != 1 {
		t.Fatalf("τ's eight bytes appear %d times in the stream; the fixture cannot aim", n)
	}
	for _, off := range []float64{math.Nextafter(tau, 0), math.Nextafter(tau, 1), tau + 1.0/(1<<33), 0, math.NaN()} {
		patched := bytes.Replace(saved.Bytes(), stored, binary.LittleEndian.AppendUint64(nil, math.Float64bits(off)), 1)
		if _, err := gbkmv.Load(bytes.NewReader(patched)); !errors.Is(err, snapfmt.ErrCorrupt) || errors.Is(err, gbkmv.ErrSnapshotFormat) {
			t.Errorf("τ = %v: Load = %v, want a corrupt-snapshot error", off, err)
		}
	}
	if _, err := gbkmv.Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Errorf("untouched stream: %v", err)
	}
}

func TestLoadVocabularyOldFormat(t *testing.T) {
	for name, b := range oldFormatStreams(t, "GBKMVVOC") {
		if _, err := gbkmv.LoadVocabulary(bytes.NewReader(b)); !errors.Is(err, gbkmv.ErrSnapshotFormat) {
			t.Errorf("%s: LoadVocabulary = %v, want ErrSnapshotFormat", name, err)
		}
	}
}

// answers is everything a query path returns, compared bit for bit.
type answers struct {
	Search [][]int
	Scored [][]gbkmv.Scored
	Totals []int
	TopK   [][]gbkmv.Scored
}

func answersOf(e gbkmv.Engine, queries []gbkmv.Record) answers {
	var a answers
	for _, q := range queries {
		pq := e.PrepareQuery(q)
		for _, th := range []float64{0.2, 0.5, 0.8} {
			a.Search = append(a.Search, e.Search(q, th))
			hits, total := pq.SearchScored(th, 7)
			a.Scored = append(a.Scored, hits)
			a.Totals = append(a.Totals, total)
		}
		a.TopK = append(a.TopK, pq.TopK(5))
	}
	return a
}

// TestSnapshotRoundTripIdentity is the differential pin of the snapshot
// format: for the GB-KMV engine, with its buffer and without (the G-KMV
// sketch), save → load → save is byte-identical and the loaded engine is the
// saved one — same answers to Search, SearchScored and TopK down to the last
// bit of every score — fresh, after both took the same inserts, and after
// inserts that shrink the threshold of the fixed-budget sketch.
func TestSnapshotRoundTripIdentity(t *testing.T) {
	records, queries := engineCorpus(t, 330)
	for name, opt := range map[string]gbkmv.EngineOptions{
		"gbkmv": {BudgetFraction: 0.3, Seed: 42},
		"gkmv":  {BudgetFraction: 0.3, BufferBits: gbkmv.NoBuffer, Seed: 42},
	} {
		t.Run(name, func(t *testing.T) {
			orig, err := gbkmv.NewEngine("gbkmv", records[:200], opt)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip := func(stage string) gbkmv.Engine {
				t.Helper()
				var first bytes.Buffer
				if err := gbkmv.SaveEngine(&first, orig); err != nil {
					t.Fatalf("%s: save: %v", stage, err)
				}
				loaded, err := gbkmv.LoadEngine(bytes.NewReader(first.Bytes()))
				if err != nil {
					t.Fatalf("%s: load: %v", stage, err)
				}
				var second bytes.Buffer
				if err := gbkmv.SaveEngine(&second, loaded); err != nil {
					t.Fatalf("%s: re-save: %v", stage, err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("%s: save → load → save changed the bytes (%d vs %d)", stage, first.Len(), second.Len())
				}
				if got, want := loaded.EngineStats(), orig.EngineStats(); got != want {
					t.Fatalf("%s: loaded stats %+v, saved %+v", stage, got, want)
				}
				if got, want := answersOf(loaded, queries), answersOf(orig, queries); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the loaded engine answers differently from the saved one", stage)
				}
				return loaded
			}
			loaded := roundTrip("fresh")
			// The loaded engine is the same state, not just the same
			// answers: it keeps agreeing under the same writes.
			tauBefore := orig.EngineStats().Tau
			for _, next := range []struct {
				stage string
				batch []gbkmv.Record
			}{{"inserts", records[200:210]}, {"a threshold shrink", records[210:]}} {
				orig.AddBatch(next.batch)
				loaded.AddBatch(next.batch)
				if got, want := answersOf(loaded, queries), answersOf(orig, queries); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %s: loaded and saved engines diverged", next.stage)
				}
				roundTrip("after " + next.stage)
			}
			if tau := orig.EngineStats().Tau; tau >= tauBefore {
				t.Fatalf("inserts did not shrink the threshold (%v → %v); fixture too small", tauBefore, tau)
			}
		})
	}
}

// TestBuildSourcesAgree: an engine built from slices (NewEngine, whose build
// reads them), one built from a RecordBuilder's corpus of the same tokens
// (NewEngineFromCorpus, whose build decodes its store) and the load of the
// first's snapshot are one index: the same snapshot bytes, stats and answers.
// A build keeps only its own copy of the records: with every record
// overwritten once NewEngine has returned, every engine answers as one built
// from the records as they were, and gbkmv saves the same bytes.
func TestBuildSourcesAgree(t *testing.T) {
	corpus, sample := engineCorpus(t, 330)
	tokens := func(r gbkmv.Record) []string {
		out := make([]string, len(r))
		for j, e := range r {
			out[j] = fmt.Sprintf("e%d", e)
		}
		return out
	}
	voc, b := gbkmv.NewVocabulary(), gbkmv.NewRecordBuilder(gbkmv.NewVocabulary())
	records := make([]gbkmv.Record, len(corpus))
	for i, r := range corpus {
		records[i] = voc.Record(tokens(r))
		for _, tok := range tokens(r) {
			b.Token([]byte(tok))
		}
		b.EndRecord()
	}
	queries := make([]gbkmv.Record, len(sample))
	for i, q := range sample {
		queries[i] = voc.Record(tokens(q))
	}
	c, err := b.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	opt := gbkmv.EngineOptions{BudgetFraction: 0.3, Seed: 42}
	fromCorpus, err := gbkmv.NewEngineFromCorpus(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	save := func(e gbkmv.Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gbkmv.SaveEngine(&buf, e); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range gbkmv.Engines() {
		want, err := gbkmv.NewEngine(name, records, opt)
		if err != nil {
			t.Fatal(err)
		}
		owned := make([]gbkmv.Record, len(records))
		for i, r := range records {
			owned[i] = slices.Clone(r)
		}
		got, err := gbkmv.NewEngine(name, owned, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range owned {
			for j := range r {
				r[j] = gbkmv.Element(j)
			}
		}
		same := map[string]gbkmv.Engine{"built from the records overwritten since": got}
		if name == gbkmv.DefaultEngine {
			snap := save(want)
			loaded, err := gbkmv.LoadEngine(bytes.NewReader(snap))
			if err != nil {
				t.Fatal(err)
			}
			same["built from a RecordBuilder's corpus"] = fromCorpus
			same["loaded from the snapshot"] = loaded
			for how, e := range same {
				if !bytes.Equal(save(e), snap) {
					t.Errorf("%s, %s: the snapshot bytes differ from the slice build's", name, how)
				}
			}
		}
		for how, e := range same {
			if st, wantSt := e.EngineStats(), want.EngineStats(); st != wantSt {
				t.Errorf("%s, %s: stats %+v, want %+v", name, how, st, wantSt)
			}
			if !reflect.DeepEqual(answersOf(e, queries), answersOf(want, queries)) {
				t.Errorf("%s, %s: the answers differ from the slice build's", name, how)
			}
		}
	}
}

// TestEnginesKeepNoCallerSlice: every engine keeps its own copy of what it
// is built and grown from — a baseline one slab of the records a batch, the
// GB-KMV engines their packed store — so the caller overwriting its records
// the moment NewEngine and AddBatch return changes no answer and no stats.
func TestEnginesKeepNoCallerSlice(t *testing.T) {
	records, queries := engineCorpus(t, 330)
	base, batch := records[:300], records[300:]
	owned := func(recs []gbkmv.Record) []gbkmv.Record {
		out := make([]gbkmv.Record, len(recs))
		for i, r := range recs {
			out[i] = slices.Clone(r)
		}
		return out
	}
	overwrite := func(recs []gbkmv.Record) {
		for _, r := range recs {
			for j := range r {
				r[j] = gbkmv.Element(j)
			}
		}
	}
	opt := gbkmv.EngineOptions{BudgetFraction: 0.3, Seed: 42}
	for _, name := range gbkmv.Engines() {
		want, err := gbkmv.NewEngine(name, base, opt)
		if err != nil {
			t.Fatal(err)
		}
		want.AddBatch(batch)
		mine, more := owned(base), owned(batch)
		got, err := gbkmv.NewEngine(name, mine, opt)
		overwrite(mine)
		if err != nil {
			t.Fatal(err)
		}
		got.AddBatch(more)
		overwrite(more)
		if st, wantSt := got.EngineStats(), want.EngineStats(); st != wantSt {
			t.Errorf("%s: stats %+v, want %+v", name, st, wantSt)
		}
		if !reflect.DeepEqual(answersOf(got, queries), answersOf(want, queries)) {
			t.Errorf("%s: the answers changed with the caller's records", name)
		}
	}
}

// TestDerivedOptionsReload: kmv derives k = budget/m with no ceiling — here
// 5000, above the 4096 a given signature length may reach — and builds and
// grows at it; an explicit NumHashes that large still builds kmv and still
// fails the engines that would sign with it.
func TestDerivedOptionsReload(t *testing.T) {
	records := make([]gbkmv.Record, 4)
	for i := range records {
		records[i] = make(gbkmv.Record, 50000)
		for j := range records[i] {
			records[i][j] = gbkmv.Element(3*j + i)
		}
	}
	e, err := gbkmv.NewEngine("kmv", records[:3], gbkmv.EngineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k := e.EngineStats().NumHashes; k != 5000 {
		t.Fatalf("derived k = %d, fixture wants 5000", k)
	}
	e.AddBatch(records[3:])
	if st := e.EngineStats(); st.NumHashes != 5000 || st.NumRecords != 4 {
		t.Fatalf("grown: k = %d over %d records, want 5000 over 4", st.NumHashes, st.NumRecords)
	}
	long := gbkmv.EngineOptions{NumHashes: 5000, Seed: 1}
	if _, err := gbkmv.NewEngine("kmv", records, long); err != nil {
		t.Errorf("kmv with NumHashes 5000: %v", err)
	}
	for _, name := range []string{"minhash", "lshforest", "lshensemble"} {
		if _, err := gbkmv.NewEngine(name, records[:1], long); err == nil {
			t.Errorf("%s accepted NumHashes 5000", name)
		}
	}
}

// TestUnsortedRecordRefused: the format stores records as gaps, so a record
// that breaks the sorted-and-deduplicated invariant is refused by every
// engine, where a collection is built (an error) and where it grows
// (AddBatch panics, naming the record's place in the batch, before the
// engine changes). No collection holds one, so a save never meets one.
func TestUnsortedRecordRefused(t *testing.T) {
	good := []gbkmv.Record{{1, 2, 3}, {2, 5, 9}}
	opt := gbkmv.EngineOptions{BudgetUnits: 100}
	for _, bad := range []gbkmv.Record{{3, 1, 2}, {1, 2, 2}} {
		for _, name := range gbkmv.Engines() {
			if _, err := gbkmv.NewEngine(name, append(good[:2:2], bad), opt); err == nil {
				t.Errorf("%s built over the record %v", name, bad)
			}
			e, err := gbkmv.NewEngine(name, good, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := e.Search(gbkmv.Record{2, 5}, 0.5)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "record 1 is not sorted and deduplicated") {
						t.Errorf("%s: AddBatch of %v panicked with %q, want record 1 named", name, bad, msg)
					}
				}()
				e.AddBatch([]gbkmv.Record{{4, 7}, bad})
			}()
			if got := e.Search(gbkmv.Record{2, 5}, 0.5); e.Len() != 2 || !slices.Equal(got, want) {
				t.Errorf("%s: a refused batch left %d records answering %v, want 2 answering %v", name, e.Len(), got, want)
			}
			if name == gbkmv.DefaultEngine {
				if err := gbkmv.SaveEngine(io.Discard, e); err != nil {
					t.Errorf("after refusing %v: %v", bad, err)
				}
			}
			if ids := e.AddBatch([]gbkmv.Record{{4, 7}}); !slices.Equal(ids, []int{2}) {
				t.Errorf("%s: after the refusal an insert got ids %v, want [2]", name, ids)
			}
		}
	}
}

// goldenRecords and goldenSnapshot: a gbkmv collection — ten records built,
// four inserted, among them an empty record and ids no vocabulary hands out
// (2²⁰+3, 2⁴⁰, 2⁶³+1), the inserts shrinking τ to ≈ 0.65 — and its snapshot:
// the index stream in format 5, records coded in bits, by class (148 bytes).
// Two fixtures hold the same collection as earlier builds wrote it, both
// inside the engine container ("GBKMVENG", the version, the name gbkmv)
// that wrapped every snapshot until the snapshot became the index stream:
// testdata/snapshot_format5_container.hex (163 bytes: this index stream
// behind the 15-byte header) and testdata/snapshot_format4.hex (170 bytes:
// format 4, which coded a gap as one uvarint), written by every build from the
// one before the segmented layer went to the one before format 5.
func goldenRecords() []gbkmv.Record {
	recs := make([]gbkmv.Record, 14)
	for i := range recs {
		n := gbkmv.Element(i)
		recs[i] = gbkmv.NewRecord([]gbkmv.Element{n % 5, 5 + n, 20 + 3*n, 60 + n*n, 300 + 17*n})
	}
	recs[4] = gbkmv.Record{}
	recs[11] = append(recs[11], 1<<20+3, 1<<40)
	recs[12] = gbkmv.Record{1<<63 + 1}
	return recs
}

const goldenSnapshot = "" +
	"47424b4d56494458059a9999999999b93f28100700000000000000000000bab2f5e43f08280e3f0530d10d211c053155" +
	"9849000562aa31930e0572aa32941a000540aa34992c0541aa359d320582547d44da000592547f50e2000503c9c27989" +
	"030540b7716eda000741b7828094f982c3ff9ff5ffbfffff01011f07000000000000000005926e095549020800010203" +
	"04050607"

// segmentedGolden is the same records as a two-segment collection (segments
// at τ = 1 and τ ≈ 0.67) in the segmented container ("GBKMVSEG") the builds
// before one index per collection wrote, since the commit before the index
// kept its records packed (format 3).
const segmentedGolden = "" +
	"47424b4d5653454703010567626b6d76000000000000000014100700000000000000000000020e010001000101000100" +
	"01010000010147424b4d56454e47030567626b6d7647424b4d56494458039a9999999999b93f14100700000000000000" +
	"00800108000000000000f03f0814061c0501051126800205030515289a0205010a1b3ab20205030a1f50b80207010f25" +
	"8001b2029cfc3ffdffbfffff1f018180808080808080800108010306080b0d171d0147424b4d56454e47030567626b6d" +
	"7647424b4d56494458039a9999999999b93f1410070000000000000000800108000020dddf88e53f081408230500050f" +
	"28f00105020513268e020005000a1932ac0205020a1d44b60205040a215eb80205000f236eb60205030f29aa01a40208" +
	"00020405070a0c0e"

// hexFixture returns the bytes a hex file under testdata spells.
func hexFixture(t testing.TB, file string) []byte {
	t.Helper()
	text, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotGoldenBytes checks "format 5 unchanged" instead of asserting
// it: the same build and inserts write the golden bytes; the golden bytes
// load, answer as the built engine does, hand back the records, and save back
// as themselves. The same collection as earlier builds wrote it — in the
// engine container, in format 5 and in format 4 — is intact bytes of another
// format: refused as one, naming the header it found, not as corruption.
func TestSnapshotGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"testdata/snapshot_format5_container.hex", "testdata/snapshot_format4.hex"} {
		_, err = gbkmv.LoadEngine(bytes.NewReader(hexFixture(t, file)))
		if !errors.Is(err, gbkmv.ErrSnapshotFormat) || errors.Is(err, snapfmt.ErrCorrupt) || !strings.Contains(err.Error(), `found "GBKMVENG"`) {
			t.Errorf("LoadEngine on %s = %v, want ErrSnapshotFormat naming the GBKMVENG header", file, err)
		}
	}
	recs := goldenRecords()
	built, err := gbkmv.NewEngine("gbkmv", recs[:10], gbkmv.EngineOptions{BudgetUnits: 40, BufferBits: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	built.AddBatch(recs[10:])
	var saved bytes.Buffer
	if err := gbkmv.SaveEngine(&saved, built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), golden) {
		t.Errorf("this build writes\n%x\nthe golden snapshot is\n%x", saved.Bytes(), golden)
	}
	loaded, err := gbkmv.LoadEngine(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("the golden snapshot does not load: %v", err)
	}
	var resaved bytes.Buffer
	if err := gbkmv.SaveEngine(&resaved, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), golden) {
		t.Errorf("the golden snapshot loads and saves back as\n%x", resaved.Bytes())
	}
	for i, want := range recs {
		if got := loaded.Record(i); !slices.Equal(got, want) {
			t.Errorf("record %d of the golden snapshot is %v, want %v", i, got, want)
		}
	}
	queries := []gbkmv.Record{recs[0], recs[3][:3], recs[11], recs[12], {0, 1, 2, 3, 4}}
	if got, want := answersOf(loaded, queries), answersOf(built, queries); !reflect.DeepEqual(got, want) {
		t.Error("the golden snapshot answers differently from the engine built here")
	}
}

// TestSegmentedContainerIsSnapshotFormat: a collection is one index, and the
// segmented container the builds before that wrote is not this build's
// format — intact bytes, so ErrSnapshotFormat, not corruption.
func TestSegmentedContainerIsSnapshotFormat(t *testing.T) {
	container, err := hex.DecodeString(segmentedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gbkmv.LoadEngine(bytes.NewReader(container)); !errors.Is(err, gbkmv.ErrSnapshotFormat) || errors.Is(err, snapfmt.ErrCorrupt) {
		t.Errorf("LoadEngine on a segmented container = %v, want ErrSnapshotFormat", err)
	}
}

// TestSnapshotAllocs pins the memory of the snapshot path and of the build
// behind it, in absolute terms. Saving allocates a fixed buffer, not a copy of
// the collection (the gob path staged ≈ 2.5× the snapshot). A loaded engine
// holds its sketch and its records packed, a third of what it held while the
// records were []uint64 slices; loading allocates less than it did then, and
// what it lets go again is derive's counters — at most 2 bytes an occurrence
// by deriveWorkers' own rule, a bit an occurrence beside them, the reader's
// buffer — never a decoded element slab, which is 8 bytes an occurrence. A
// build allocates a few bytes per element occurrence, the packed slab among
// them, nothing staged per occurrence (it was 22 B at the default budget and
// 44 at τ = 1; 9.9 at τ = 1 while the posting lists held 32-bit ids). The byte pin holds the format to storing derive's inputs only:
// a stream that carried keys would be three times as long at τ = 1 as at
// τ ≈ 0.087.
func TestSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are meaningless under the race detector")
	}
	t.Run("build", func(t *testing.T) {
		// DESIGN.md's corpus: 20 000 records / 1 306 252 occurrences.
		d, err := dataset.Synthetic(dataset.SyntheticConfig{
			NumRecords: 20000, Universe: 50000,
			AlphaFreq: 1.1, AlphaSize: 2,
			MinSize: 20, MaxSize: 500,
		}, 11)
		if err != nil {
			t.Fatal(err)
		}
		occurrences := d.TotalElements()
		size := map[string]int{}
		for _, c := range []struct {
			name    string
			opt     gbkmv.Options
			perElem float64 // bytes BuildIndex may allocate per occurrence
		}{
			{"default", gbkmv.Options{}, 8},
			{"tau1", gbkmv.Options{BudgetUnits: 8 * occurrences, BufferBits: 64}, 11},
		} {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			ix, err := gbkmv.Build(d.Records, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if tau := ix.Stats().Tau; (tau == 1) != (c.name == "tau1") {
				t.Fatalf("%s: τ = %v", c.name, tau)
			}
			per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(occurrences)
			t.Logf("%s: build allocated %.1f B per occurrence", c.name, per)
			if per > c.perElem {
				t.Errorf("%s: build allocated %.1f B per element occurrence, want ≤ %.0f", c.name, per, c.perElem)
			}
			var snap bytes.Buffer
			if err := ix.Save(&snap); err != nil {
				t.Fatal(err)
			}
			size[c.name] = snap.Len()
		}
		if lo, hi := size["default"], size["tau1"]; float64(hi) > 1.01*float64(lo) || float64(lo) > 1.01*float64(hi) {
			t.Errorf("snapshot is %d bytes at τ ≈ 0.087 and %d at τ = 1: a stream of derive's inputs does not grow with τ", lo, hi)
		}
	})
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		NumRecords: 20000, Universe: 50000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 10, MaxSize: 300,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	occurrences := d.TotalElements()
	for _, c := range []struct {
		name string
		opt  gbkmv.EngineOptions
		// What this load allocated and the loaded engine held at the commit
		// before the records were packed (PR 18), and what it may hold now.
		parentAllocated, parentHeld, maxHeld uint64
	}{
		// τ ≈ 0.1: records dominate.
		{"budget-10%", gbkmv.EngineOptions{Seed: 5}, 7_048_320, 6_093_488, 2_200_000},
		// τ = 1: every hash stored, and listed in 2-byte gaps (5.24 MB held
		// while the lists held 32-bit ids).
		{"headroom", gbkmv.EngineOptions{BudgetUnits: 8 * occurrences, BufferBits: 64, Seed: 5}, 11_636_128, 10_680_352, 5_000_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := gbkmv.NewEngine("gbkmv", d.Records, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := gbkmv.SaveEngine(&snap, e); err != nil {
				t.Fatal(err)
			}
			var m0, m1, m2 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			if err := gbkmv.SaveEngine(io.Discard, e); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if saved := m1.TotalAlloc - m0.TotalAlloc; saved >= 1<<20 {
				t.Errorf("saving a %d-byte snapshot allocated %d bytes, want < 1 MB", snap.Len(), saved)
			}

			e = nil
			runtime.GC()
			runtime.ReadMemStats(&m0)
			loaded, err := gbkmv.LoadEngine(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			runtime.GC()
			runtime.ReadMemStats(&m2)
			allocated, held := m1.TotalAlloc-m0.TotalAlloc, m2.HeapAlloc-m0.HeapAlloc
			t.Logf("snapshot %d bytes of %d occurrences; load allocated %d (was %d), loaded engine holds %d (was %d)",
				snap.Len(), occurrences, allocated, c.parentAllocated, held, c.parentHeld)
			if allocated >= c.parentAllocated {
				t.Errorf("loading allocated %d bytes, %d while the records were slices", allocated, c.parentAllocated)
			}
			if held > c.maxHeld {
				t.Errorf("the loaded engine holds %d bytes, want ≤ %d", held, c.maxHeld)
			}
			if transient, slab := allocated-held, uint64(8*occurrences); 3*transient >= slab {
				t.Errorf("loading let go of %d bytes: over a third of a decoded element slab (%d)", transient, slab)
			}
			runtime.KeepAlive(loaded)
		})
	}
}
