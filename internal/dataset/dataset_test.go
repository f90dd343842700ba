package dataset

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gbkmv/internal/hash"
)

func TestNewRecordSortsAndDedups(t *testing.T) {
	r := NewRecord([]hash.Element{5, 1, 5, 3, 1})
	want := []hash.Element{1, 3, 5}
	if len(r) != len(want) {
		t.Fatalf("record = %v, want %v", r, want)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("record = %v, want %v", r, want)
		}
	}
}

func TestNewRecordEmpty(t *testing.T) {
	if r := NewRecord(nil); len(r) != 0 {
		t.Errorf("NewRecord(nil) = %v", r)
	}
}

func TestContains(t *testing.T) {
	r := NewRecord([]hash.Element{2, 4, 6})
	for _, e := range []hash.Element{2, 4, 6} {
		if !r.Contains(e) {
			t.Errorf("Contains(%d) = false", e)
		}
	}
	for _, e := range []hash.Element{1, 3, 7} {
		if r.Contains(e) {
			t.Errorf("Contains(%d) = true", e)
		}
	}
}

func recordFromUint16s(xs []uint16) (Record, map[hash.Element]bool) {
	elems := make([]hash.Element, len(xs))
	set := make(map[hash.Element]bool)
	for i, x := range xs {
		elems[i] = hash.Element(x)
		set[hash.Element(x)] = true
	}
	return NewRecord(elems), set
}

func TestIntersectUnionProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, sa := recordFromUint16s(xs)
		b, sb := recordFromUint16s(ys)
		wantInter := 0
		for e := range sa {
			if sb[e] {
				wantInter++
			}
		}
		wantUnion := len(sa) + len(sb) - wantInter
		return a.IntersectSize(b) == wantInter &&
			b.IntersectSize(a) == wantInter &&
			a.UnionSize(b) == wantUnion
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContainmentPaperExample(t *testing.T) {
	// Example 1 / Fig. 1 of the paper.
	x1 := NewRecord([]hash.Element{1, 2, 3, 4, 7})
	x2 := NewRecord([]hash.Element{2, 3, 5})
	x3 := NewRecord([]hash.Element{2, 4, 5})
	x4 := NewRecord([]hash.Element{1, 2, 6, 10})
	q := NewRecord([]hash.Element{1, 2, 3, 5, 7, 9})
	cases := []struct {
		x    Record
		want float64
	}{
		{x1, 4.0 / 6.0}, // paper rounds to 0.67
		{x2, 3.0 / 6.0},
		{x3, 2.0 / 6.0},
		{x4, 2.0 / 6.0},
	}
	for i, c := range cases {
		if got := q.Containment(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("C(Q, X%d) = %v, want %v", i+1, got, c.want)
		}
	}
}

func TestJaccardIntroExample(t *testing.T) {
	// Intro example: Q={five,guys}, X has 9 words incl. both, Y has 3 words
	// incl. "five" only. J(Q,X)=2/9, J(Q,Y)=1/4, C(Q,X)=1, C(Q,Y)=0.5.
	q := NewRecord([]hash.Element{1, 2})
	x := NewRecord([]hash.Element{1, 2, 3, 4, 5, 6, 7, 8, 9})
	y := NewRecord([]hash.Element{1, 10, 11})
	if got := q.Jaccard(x); math.Abs(got-2.0/9.0) > 1e-12 {
		t.Errorf("J(Q,X) = %v", got)
	}
	if got := q.Jaccard(y); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("J(Q,Y) = %v", got)
	}
	if got := q.Containment(x); got != 1.0 {
		t.Errorf("C(Q,X) = %v", got)
	}
	if got := q.Containment(y); got != 0.5 {
		t.Errorf("C(Q,Y) = %v", got)
	}
}

func TestContainmentEmptyQuery(t *testing.T) {
	var q Record
	x := NewRecord([]hash.Element{1})
	if got := q.Containment(x); got != 0 {
		t.Errorf("empty-query containment = %v", got)
	}
	if got := q.Jaccard(Record{}); got != 0 {
		t.Errorf("empty-empty jaccard = %v", got)
	}
}

func TestSyntheticConfigValidate(t *testing.T) {
	good := SyntheticConfig{NumRecords: 10, Universe: 100, AlphaFreq: 1, AlphaSize: 2, MinSize: 1, MaxSize: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []SyntheticConfig{
		{NumRecords: 0, Universe: 100, MinSize: 1, MaxSize: 10},
		{NumRecords: 10, Universe: 0, MinSize: 1, MaxSize: 10},
		{NumRecords: 10, Universe: 100, AlphaFreq: -1, MinSize: 1, MaxSize: 10},
		{NumRecords: 10, Universe: 100, MinSize: 0, MaxSize: 10},
		{NumRecords: 10, Universe: 100, MinSize: 5, MaxSize: 4},
		{NumRecords: 10, Universe: 5, MinSize: 1, MaxSize: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSyntheticShape(t *testing.T) {
	cfg := SyntheticConfig{
		NumRecords: 500, Universe: 5000,
		AlphaFreq: 1.1, AlphaSize: 2.5,
		MinSize: 10, MaxSize: 200,
	}
	d, err := Synthetic(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != 500 {
		t.Fatalf("NumRecords = %d", d.NumRecords())
	}
	for i, r := range d.Records {
		if len(r) < cfg.MinSize || len(r) > cfg.MaxSize {
			t.Fatalf("record %d has size %d outside [%d,%d]", i, len(r), cfg.MinSize, cfg.MaxSize)
		}
		for j := 1; j < len(r); j++ {
			if r[j] <= r[j-1] {
				t.Fatalf("record %d not strictly sorted", i)
			}
		}
		for _, e := range r {
			if int(e) >= cfg.Universe {
				t.Fatalf("record %d has out-of-universe element %d", i, e)
			}
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{NumRecords: 50, Universe: 1000, AlphaFreq: 1, AlphaSize: 2, MinSize: 5, MaxSize: 50}
	a, _ := Synthetic(cfg, 42)
	b, _ := Synthetic(cfg, 42)
	if a.NumRecords() != b.NumRecords() {
		t.Fatal("different record counts")
	}
	for i := range a.Records {
		if len(a.Records[i]) != len(b.Records[i]) {
			t.Fatalf("record %d differs", i)
		}
		for j := range a.Records[i] {
			if a.Records[i][j] != b.Records[i][j] {
				t.Fatalf("record %d element %d differs", i, j)
			}
		}
	}
	c, _ := Synthetic(cfg, 43)
	same := true
	for i := range a.Records {
		if len(a.Records[i]) != len(c.Records[i]) {
			same = false
			break
		}
	}
	if same {
		// Extremely unlikely that every record length matches across seeds.
		t.Log("seed variation produced identical record lengths (suspicious but not fatal)")
	}
}

func TestSyntheticSkewDirection(t *testing.T) {
	// Higher α1 concentrates mass on few elements: top element's frequency
	// share must grow with α1.
	base := SyntheticConfig{NumRecords: 400, Universe: 2000, AlphaSize: 2, MinSize: 10, MaxSize: 50}
	share := func(alpha float64) float64 {
		cfg := base
		cfg.AlphaFreq = alpha
		d, err := Synthetic(cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		freq := d.Frequencies()
		max, total := 0, 0
		for _, f := range freq {
			total += f
			if f > max {
				max = f
			}
		}
		return float64(max) / float64(total)
	}
	low, high := share(0.2), share(1.5)
	if high <= low {
		t.Errorf("top-element share did not grow with α1: %v vs %v", low, high)
	}
}

func TestFrequenciesAndDistinct(t *testing.T) {
	d := &Dataset{
		Records: []Record{
			NewRecord([]hash.Element{0, 1}),
			NewRecord([]hash.Element{1, 2}),
		},
		Universe: 5,
	}
	freq := d.Frequencies()
	want := []int{1, 2, 1, 0, 0}
	for i := range want {
		if freq[i] != want[i] {
			t.Fatalf("freq = %v, want %v", freq, want)
		}
	}
	if d.TotalElements() != 4 {
		t.Errorf("TotalElements = %d", d.TotalElements())
	}
	st, err := d.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctElements != 3 || st.TotalElements != 4 || st.AvgRecordLen != 2 {
		t.Errorf("stats = %+v, want 3 distinct, 4 occurrences, average length 2", st)
	}
}

func TestTopFrequent(t *testing.T) {
	d := &Dataset{
		Records: []Record{
			NewRecord([]hash.Element{0, 1, 2}),
			NewRecord([]hash.Element{1, 2}),
			NewRecord([]hash.Element{2}),
		},
		Universe: 4,
	}
	top := d.TopFrequent(2)
	if len(top) != 2 || top[0] != 2 || top[1] != 1 {
		t.Errorf("TopFrequent(2) = %v, want [2 1]", top)
	}
	all := d.TopFrequent(100)
	if len(all) != 3 {
		t.Errorf("TopFrequent(100) returned %d ids", len(all))
	}
}

func TestTopFrequentDeterministicTies(t *testing.T) {
	d := &Dataset{
		Records:  []Record{NewRecord([]hash.Element{0, 1, 2, 3})},
		Universe: 4,
	}
	a := d.TopFrequent(4)
	for i := range a {
		if a[i] != hash.Element(i) {
			t.Errorf("tie-break not by id: %v", a)
		}
	}
}

// TestTopFrequentFromMatchesFullSort: selecting the r before sorting them
// returns what sorting every occurring element and cutting at r did — ties on
// the r-th frequency to the smaller ids — in a slice of exactly r, so a caller
// that keeps it pins nothing sized by the universe. The same table shuffled,
// its positions naming far-apart ids in no order, selects the same elements.
func TestTopFrequentFromMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		freq := make([]int, 1+rng.Intn(300))
		for e := range freq {
			if rng.Intn(3) > 0 {
				freq[e] = rng.Intn(1 + rng.Intn(12)) // few distinct values: long tie runs
			}
		}
		var ref []hash.Element
		for e, f := range freq {
			if f > 0 {
				ref = append(ref, hash.Element(e))
			}
		}
		sort.Slice(ref, func(i, j int) bool {
			if fi, fj := freq[ref[i]], freq[ref[j]]; fi != fj {
				return fi > fj
			}
			return ref[i] < ref[j]
		})
		for _, r := range []int{0, 1, rng.Intn(len(freq) + 1), len(ref), len(freq) + 5} {
			got, want := TopFrequentFrom(freq, nil, r), ref[:min(r, len(ref))]
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, r=%d over %v: %v, full sort %v", trial, r, freq, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("trial %d, r=%d: %d elements in a slice of capacity %d", trial, r, len(got), cap(got))
			}
			const spread = 1 << 40
			perm := rng.Perm(len(freq))
			shuffled, elems := make([]int, len(freq)), make([]hash.Element, len(freq))
			for pos, e := range perm {
				shuffled[pos], elems[pos] = freq[e], hash.Element(e)*spread
			}
			spreadWant := make([]hash.Element, len(want))
			for i, e := range want {
				spreadWant[i] = e * spread
			}
			if got := TopFrequentFrom(shuffled, elems, r); !slices.Equal(got, spreadWant) {
				t.Fatalf("trial %d, r=%d, positions shuffled: %v, want %v", trial, r, got, spreadWant)
			}
		}
	}
}

func TestSampleQueries(t *testing.T) {
	cfg := SyntheticConfig{NumRecords: 100, Universe: 1000, AlphaFreq: 1, AlphaSize: 1, MinSize: 5, MaxSize: 20}
	d, _ := Synthetic(cfg, 5)
	qs := d.SampleQueries(10, 1)
	if len(qs) != 10 {
		t.Fatalf("got %d queries", len(qs))
	}
	// Deterministic in seed.
	qs2 := d.SampleQueries(10, 1)
	for i := range qs {
		if len(qs[i]) != len(qs2[i]) {
			t.Fatal("query sampling not deterministic")
		}
	}
	// Requesting more than m returns all records.
	if got := len(d.SampleQueries(500, 2)); got != 100 {
		t.Errorf("oversampled queries = %d, want 100", got)
	}
	if d.SampleQueries(0, 3) != nil {
		t.Error("zero queries should be nil")
	}
}

func TestComputeStats(t *testing.T) {
	cfg := SyntheticConfig{NumRecords: 800, Universe: 8000, AlphaFreq: 1.2, AlphaSize: 3, MinSize: 10, MaxSize: 100}
	d, _ := Synthetic(cfg, 21)
	s, err := d.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRecords != 800 {
		t.Errorf("NumRecords = %d", s.NumRecords)
	}
	if s.AvgRecordLen < float64(cfg.MinSize) || s.AvgRecordLen > float64(cfg.MaxSize) {
		t.Errorf("AvgRecordLen = %v out of range", s.AvgRecordLen)
	}
	if s.AlphaFreq <= 0 {
		t.Errorf("AlphaFreq = %v", s.AlphaFreq)
	}
	if s.AlphaSize <= 0 {
		t.Errorf("AlphaSize = %v", s.AlphaSize)
	}
}

func TestUniformGenerator(t *testing.T) {
	d, err := Uniform(200, 5000, 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != 200 {
		t.Fatalf("NumRecords = %d", d.NumRecords())
	}
	// Sizes should span the range reasonably evenly.
	small, large := 0, 0
	for _, r := range d.Records {
		if len(r) < 30 {
			small++
		} else {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("uniform sizes look skewed: %d small vs %d large", small, large)
	}
}

func TestProfilesGenerate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Config.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
	// Generate the smallest profile end-to-end.
	p, err := ProfileByName("WDC")
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != p.Config.NumRecords {
		t.Errorf("generated %d records", d.NumRecords())
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("NOPE"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestProfileNamesSortedComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 7 {
		t.Fatalf("got %d profiles, want 7", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if got, err := ProfileByName(p.Name); err != nil || got.Name != p.Name || seen[p.Name] {
			t.Errorf("profile %q: looked up as %q (%v), seen before: %v", p.Name, got.Name, err, seen[p.Name])
		}
		seen[p.Name] = true
	}
}
