package bitmap

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(100)
	if b.Len() != 100 {
		t.Errorf("Len = %d, want 100", b.Len())
	}
	if b.Count() != 0 {
		t.Errorf("Count = %d, want 0", b.Count())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

// has reports whether b holds bit i.
func has(b *Bitmap, i int) bool { return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 }

func TestSetGetClear(t *testing.T) {
	b := New(130) // spans 3 words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if has(b, i) {
			t.Errorf("bit %d set before Set", i)
		}
		b.Set(i)
		if !has(b, i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	b.Reset()
	for _, i := range []int{0, 63, 64, 129} {
		if has(b, i) {
			t.Errorf("bit %d still set after Reset", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for name, f := range map[string]func(){
		"Set":          func() { b.Set(10) },
		"Set negative": func() { b.Set(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCount(t *testing.T) {
	b := New(256)
	want := 0
	for i := 0; i < 256; i += 3 {
		b.Set(i)
		want++
	}
	if got := b.Count(); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestAndCountMatchesSetIntersection(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const n = 1 << 16
		a, b := New(n), New(n)
		sa := make(map[int]bool)
		sb := make(map[int]bool)
		for _, x := range xs {
			a.Set(int(x))
			sa[int(x)] = true
		}
		for _, y := range ys {
			b.Set(int(y))
			sb[int(y)] = true
		}
		want := 0
		for k := range sa {
			if sb[k] {
				want++
			}
		}
		return a.AndCountWords(b.words) == want && b.AndCountWords(a.words) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOrCountMatchesSetUnion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const n = 1 << 16
		a, b := New(n), New(n)
		s := make(map[int]bool)
		for _, x := range xs {
			a.Set(int(x))
			s[int(x)] = true
		}
		for _, y := range ys {
			b.Set(int(y))
			s[int(y)] = true
		}
		// |A ∪ B| by inclusion–exclusion over the two kernels the index uses.
		return a.Count()+b.Count()-a.AndCountWords(b.words) == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAndCountDifferentCapacities(t *testing.T) {
	a := New(64)
	b := New(256)
	a.Set(3)
	b.Set(3)
	b.Set(200) // beyond a's capacity; must not be counted
	if got := a.AndCountWords(b.words); got != 1 {
		t.Errorf("AndCountWords = %d, want 1", got)
	}
	if got := b.AndCountWords(a.words); got != 1 {
		t.Errorf("AndCountWords (swapped) = %d, want 1", got)
	}
}

func TestOrCountDifferentCapacities(t *testing.T) {
	a := New(64)
	b := New(256)
	a.Set(3)
	b.Set(200)
	if got := a.Count() + b.Count() - a.AndCountWords(b.words); got != 2 {
		t.Errorf("|A ∪ B| = %d, want 2", got)
	}
}

func TestInclusionExclusion(t *testing.T) {
	// |A| + |B| = |A∩B| + |A∪B| must hold for any pair, the union counted
	// bit by bit.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a, b := New(512), New(512)
		for i := 0; i < 100; i++ {
			a.Set(rng.Intn(512))
			b.Set(rng.Intn(512))
		}
		union := 0
		for i := 0; i < 512; i++ {
			if has(a, i) || has(b, i) {
				union++
			}
		}
		if and := a.AndCountWords(b.words); a.Count()+b.Count() != and+union {
			t.Fatalf("inclusion-exclusion violated: |A|=%d |B|=%d ∩=%d ∪=%d",
				a.Count(), b.Count(), and, union)
		}
	}
}

func TestReset(t *testing.T) {
	a := New(128)
	a.Set(0)
	a.Set(127)
	a.Reset()
	if a.Count() != 0 {
		t.Errorf("Count after Reset = %d, want 0", a.Count())
	}
}

func TestOnes(t *testing.T) {
	a := New(200)
	want := []int{0, 63, 64, 65, 199}
	for _, i := range want {
		a.Set(i)
	}
	// The allocation-free iteration over Words/Word that the index uses.
	var got []int
	for wi := 0; wi < a.Words(); wi++ {
		for w := a.Word(wi); w != 0; w &= w - 1 {
			got = append(got, wi*wordBits+bits.TrailingZeros64(w))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Ones = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ones = %v, want %v", got, want)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	for bitsN, want := range map[int]int{1: 8, 64: 8, 65: 16} {
		if got := 8 * New(bitsN).Words(); got != want {
			t.Errorf("%d bits take %d bytes, want %d", bitsN, got, want)
		}
	}
}

func BenchmarkAndCount1024(b *testing.B) {
	x, y := New(1024), New(1024)
	for i := 0; i < 1024; i += 2 {
		x.Set(i)
	}
	for i := 0; i < 1024; i += 3 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.AndCountWords(y.words)
	}
}

// TestAndCountBytesMatchesBits: a query bitmap against a byte row, bit i of
// the row being bit i%8 of byte i/8, counts what a bit-by-bit walk counts —
// at every row length from none to three words and a half, so the whole-word
// loads, the overlapping load of a partial last word and the byte-by-byte
// assembly of a row under a word all run, against bitmaps shorter and longer
// than the row.
func TestAndCountBytesMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 28; n++ {
		for _, bitsLen := range []int{8 * n, 8*n + 5, max(0, 8*n-11), 200} {
			b := New(bitsLen)
			for i := 0; i < bitsLen; i++ {
				if rng.Intn(3) == 0 {
					b.Set(i)
				}
			}
			row := make([]byte, n)
			rng.Read(row)
			want := 0
			for i := 0; i < min(8*n, bitsLen); i++ {
				if row[i/8]&(1<<(i%8)) != 0 && has(b, i) {
					want++
				}
			}
			if got := b.AndCountBytes(row); got != want {
				t.Fatalf("row of %d bytes, bitmap of %d bits: AndCountBytes = %d, want %d", n, bitsLen, got, want)
			}
		}
	}
}
