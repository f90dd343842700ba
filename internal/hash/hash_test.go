package hash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// A bijection has no collisions; spot-check distinct inputs map to
	// distinct outputs and that the inverse property (determinism) holds.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d) == %#x", i, prev, h)
		}
		seen[h] = i
	}
}

func TestMix64Deterministic(t *testing.T) {
	f := func(x uint64) bool { return Mix64(x) == Mix64(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHash64SeedSeparation(t *testing.T) {
	// Different seeds must produce (essentially always) different hashes for
	// the same element.
	same := 0
	for e := Element(0); e < 1000; e++ {
		if Hash64(e, 1) == Hash64(e, 2) {
			same++
		}
	}
	if same != 0 {
		t.Errorf("got %d identical hashes across seeds, want 0", same)
	}
}

func TestUnitRange(t *testing.T) {
	f := func(h uint64) bool {
		u := Unit(h)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitExtremes(t *testing.T) {
	if got := Unit(0); got != 0 {
		t.Errorf("Unit(0) = %v, want 0", got)
	}
	if got := Unit(math.MaxUint64); got >= 1 {
		t.Errorf("Unit(MaxUint64) = %v, want < 1", got)
	}
}

func TestUnitMonotone(t *testing.T) {
	// Unit must preserve the ordering of hash values (up to the dropped low
	// bits), because KMV relies on order statistics of the hashes.
	f := func(a, b uint64) bool {
		if a>>11 < b>>11 {
			return Unit(a) < Unit(b)
		}
		if a>>11 == b>>11 {
			return Unit(a) == Unit(b)
		}
		return Unit(a) > Unit(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitHashUniformity(t *testing.T) {
	// Mean of n uniform draws on [0,1) is 0.5 with std 1/sqrt(12n).
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += UnitHash(Element(i), 42)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 5.0/math.Sqrt(12*n) {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestUnitHashBucketUniformity(t *testing.T) {
	const n = 100000
	const buckets = 10
	var counts [buckets]int
	for i := 0; i < n; i++ {
		u := UnitHash(Element(i), 7)
		counts[int(u*buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 4*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from expected %.0f", b, c, want)
		}
	}
}

func TestNewFamilySize(t *testing.T) {
	for _, k := range []int{1, 16, 256} {
		if got := len(NewFamily(k, 0).seeds); got != k {
			t.Errorf("NewFamily(%d) has %d functions", k, got)
		}
	}
}

func TestNewFamilyPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFamily(0, ...) did not panic")
		}
	}()
	NewFamily(0, 1)
}

func TestFamilyDeterministic(t *testing.T) {
	a := NewFamily(8, 99)
	b := NewFamily(8, 99)
	for i := 0; i < 8; i++ {
		if a.MinHash64(i, []Element{12345}) != b.MinHash64(i, []Element{12345}) {
			t.Fatalf("family not deterministic at i=%d", i)
		}
	}
}

func TestFamilyIndependentMembers(t *testing.T) {
	f := NewFamily(4, 3)
	e := Element(777)
	seen := make(map[uint64]bool)
	for i := 0; i < 4; i++ {
		h := f.MinHash64(i, []Element{e})
		if seen[h] {
			t.Fatalf("duplicate hash across family members: %#x", h)
		}
		seen[h] = true
	}
}

func TestFamilyMinUnit(t *testing.T) {
	f := NewFamily(2, 5)
	elems := []Element{1, 2, 3, 4, 5}
	min := f.MinHash64(0, elems)
	attained := false
	for _, e := range elems {
		v := Hash64(e, f.seeds[0])
		if v < min {
			t.Errorf("MinHash64 missed smaller value %#x < %#x", v, min)
		}
		attained = attained || v == min
	}
	if !attained {
		t.Errorf("MinHash64 = %#x is no element's hash", min)
	}
}

func TestFamilyMinUnitEmpty(t *testing.T) {
	f := NewFamily(1, 5)
	if got := f.MinHash64(0, nil); got != math.MaxUint64 {
		t.Errorf("MinHash64(empty) = %v, want MaxUint64", got)
	}
}

func TestMinHashCollisionProbabilityApproximatesJaccard(t *testing.T) {
	// Pr[hmin(X) = hmin(Y)] = J(X, Y): the foundational MinHash property
	// (Broder 1997), checked empirically with 400 independent functions.
	x := make([]Element, 0, 100)
	y := make([]Element, 0, 100)
	for i := 0; i < 100; i++ {
		x = append(x, Element(i))
	}
	for i := 50; i < 150; i++ {
		y = append(y, Element(i))
	}
	// J = 50 / 150 = 1/3.
	const k = 400
	f := NewFamily(k, 11)
	coll := 0
	for i := 0; i < k; i++ {
		if f.MinHash64(i, x) == f.MinHash64(i, y) {
			coll++
		}
	}
	got := float64(coll) / k
	want := 1.0 / 3.0
	// std = sqrt(p(1-p)/k) ~ 0.0236; allow 4 sigma.
	if math.Abs(got-want) > 0.095 {
		t.Errorf("collision rate %v, want ~%v", got, want)
	}
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Hash64(Element(i), 42)
	}
	_ = sink
}

func BenchmarkFamilyMinHash64(b *testing.B) {
	f := NewFamily(1, 9)
	elems := make([]Element, 1000)
	for i := range elems {
		elems[i] = Element(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MinHash64(0, elems)
	}
}

func TestKey32IsUnitHashInFixedPoint(t *testing.T) {
	// The key is the unit hash scaled to 32 bits and truncated, so key order
	// is unit-hash order and "key ≤ c" is "unit hash < (c+1)/2³²".
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		e, seed := Element(rng.Uint64()), rng.Uint64()
		k, u := Key32(e, seed), UnitHash(e, seed)
		if want := uint32(u * (1 << 32)); k != want {
			t.Fatalf("Key32(%d, %d) = %d, UnitHash·2³² = %d", e, seed, k, want)
		}
		if !(u < KeyUnit(k)) || (k > 0 && u < KeyUnit(k-1)) {
			t.Fatalf("unit hash %v outside key %d's bucket [%v, %v)", u, k, KeyUnit(k-1), KeyUnit(k))
		}
	}
}

func TestKeyUnitRoundTrip(t *testing.T) {
	keys := []uint32{0, 1, 2, 1 << 31, math.MaxUint32 - 1, math.MaxUint32}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100000; i++ {
		keys = append(keys, rng.Uint32())
	}
	for _, k := range keys {
		u := KeyUnit(k)
		if !(u > 0 && u <= 1) {
			t.Fatalf("KeyUnit(%d) = %v outside (0, 1]", k, u)
		}
		if got, ok := UnitKey(u); !ok || got != k {
			t.Fatalf("UnitKey(KeyUnit(%d)) = %d, %v", k, got, ok)
		}
		// Anything short of the next boundary is still key k.
		if got, ok := UnitKey(math.Nextafter(KeyUnit(k), 2)); k < math.MaxUint32 && (!ok || got != k) {
			t.Fatalf("UnitKey just above KeyUnit(%d) = %d, %v", k, got, ok)
		}
	}
	if KeyUnit(math.MaxUint32) != 1 || KeyUnit(0) != 1.0/(1<<32) {
		t.Errorf("KeyUnit ends: %v, %v", KeyUnit(0), KeyUnit(math.MaxUint32))
	}
	for _, u := range []float64{0, 1.0 / (1 << 33), -0.5, math.Nextafter(1, 2), math.NaN(), math.Inf(1)} {
		if k, ok := UnitKey(u); ok {
			t.Errorf("UnitKey(%v) = %d, want none", u, k)
		}
	}
}
