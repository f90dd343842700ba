// Package hash provides the hashing substrate shared by every sketch in this
// repository: a fast avalanching 64-bit hash over element identifiers, a
// mapping from 64-bit hash values to the unit interval [0, 1) and to the
// 32-bit fixed-point keys the G-KMV signatures store, and seeded hash
// families for MinHash-style signatures.
//
// All sketches in the paper (KMV, G-KMV, GB-KMV) assume a collision-free hash
// that maps elements uniformly to [0, 1). We use a 64-bit finalizer
// (SplitMix64 / MurmurHash3 fmix64 style), which is collision-free in
// practice for the universe sizes exercised here and passes standard
// avalanche criteria.
package hash

import "math"

// Element is the integer identifier of a set element. Datasets map raw tokens
// (words, q-grams, item ids) to dense Element values.
type Element uint64

const (
	// phi64 is the 64-bit golden-ratio constant used by SplitMix64.
	phi64 = 0x9E3779B97F4A7C15
	mix1  = 0xBF58476D1CE4E5B9
	mix2  = 0x94D049BB133111EB
)

// Mix64 applies the SplitMix64 finalizer to x. It is a bijection on uint64,
// so distinct inputs can never collide.
func Mix64(x uint64) uint64 {
	x += phi64
	x ^= x >> 30
	x *= mix1
	x ^= x >> 27
	x *= mix2
	x ^= x >> 31
	return x
}

// Hash64 hashes an element with the given seed. For a fixed seed it is a
// bijection on the element space, so two distinct elements never share a hash
// value (the "no hash collision" assumption of the paper holds exactly).
func Hash64(e Element, seed uint64) uint64 {
	return Mix64(uint64(e) ^ Mix64(seed))
}

// Unit maps a 64-bit hash value to the unit interval [0, 1).
func Unit(h uint64) float64 {
	// Use the top 53 bits so the result is an exactly representable float64
	// in [0, 1).
	return float64(h>>11) / (1 << 53)
}

// UnitHash hashes an element with the given seed directly to [0, 1).
func UnitHash(e Element, seed uint64) float64 {
	return Unit(Hash64(e, seed))
}

// Key32 hashes an element to its 32-bit sketch key: the top 32 bits of
// Hash64, i.e. the unit hash in 32-bit fixed point (uint32(UnitHash·2³²)), so
// key order is unit-hash order. This is the one width the G-KMV signatures
// store and compare — the paper's 32-bit signature unit. Hash64 stays a
// bijection; two distinct elements share a key with probability 2⁻³².
func Key32(e Element, seed uint64) uint32 {
	return uint32(Hash64(e, seed) >> 32)
}

// KeyUnit returns the share of the unit interval at or under key k,
// (k+1)/2³² — exactly representable, never zero, 1 at the largest key. It is
// the value a key stands for wherever the estimators need a unit hash: the
// threshold τ of "keep key ≤ k", and U(k) when k is the largest key of a
// union.
func KeyUnit(k uint32) float64 {
	return float64(uint64(k)+1) / (1 << 32)
}

// UnitKey is KeyUnit's inverse on [0, 1]: the largest key k with
// KeyUnit(k) ≤ u. ok is false when there is none (u < 2⁻³² keeps nothing) or
// u is outside the unit interval.
func UnitKey(u float64) (k uint32, ok bool) {
	n := u * (1 << 32) // keys kept; the scaling is exact
	if !(n >= 1 && n <= 1<<32) {
		return 0, false
	}
	return uint32(uint64(n) - 1), true
}

// Family is a family of independent hash functions derived from a base seed,
// as required by MinHash signatures (k independent functions h_1..h_k).
type Family struct {
	seeds []uint64
}

// NewFamily creates a family of k independent hash functions. The family is
// deterministic in (k, seed).
func NewFamily(k int, seed uint64) *Family {
	if k <= 0 {
		panic("hash: family size must be positive")
	}
	seeds := make([]uint64, k)
	s := Mix64(seed)
	for i := range seeds {
		// SplitMix64 sequence: uncorrelated seeds for each member.
		s += phi64
		seeds[i] = Mix64(s)
	}
	return &Family{seeds: seeds}
}

// MinHash64 returns the minimum 64-bit hash of the i-th function over the
// elements, and math.MaxUint64 for an empty slice.
func (f *Family) MinHash64(i int, elems []Element) uint64 {
	min := uint64(math.MaxUint64)
	seed := f.seeds[i]
	for _, e := range elems {
		if v := Hash64(e, seed); v < min {
			min = v
		}
	}
	return min
}
