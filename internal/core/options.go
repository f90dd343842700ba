// Package core implements GB-KMV, the paper's contribution: a G-KMV sketch
// augmented with a per-record bitmap buffer that stores the top-r most
// frequent elements exactly (Section IV). It provides index construction
// (Algorithm 1), containment similarity search (Algorithm 2), an
// inverted-index accelerated search in the spirit of the paper's PPjoin*
// integration, the variance-based cost model that selects the buffer size r
// (Section IV-C6), and dynamic record insertion.
package core

import "fmt"

// Buffer-size sentinels for Options.BufferBits.
const (
	// AutoBuffer (the zero value, and the recommended setting) selects the
	// buffer size with the variance cost model of Section IV-C6.
	AutoBuffer = 0
	// NoBuffer disables the frequent-element buffer, producing a pure
	// G-KMV sketch.
	NoBuffer = -1
)

// BufferUnitBits is the number of buffer bits that cost one budget unit.
// The paper charges r/32 units per record for an r-bit buffer, i.e. one
// budget unit corresponds to one 32-bit signature value — which is what a
// stored hash value is (hash.Key32): unit = one 32-bit key = 32 buffer bits
// = 4 bytes, in the budget and in memory alike.
const BufferUnitBits = 32

// Options configures GB-KMV index construction; the root package exports it
// as gbkmv.Options.
type Options struct {
	// BudgetFraction is the sketch budget as a fraction of the total number
	// of element occurrences in the collection. Default 0.10 (the paper's
	// default "SpaceUsed").
	BudgetFraction float64
	// BudgetUnits is the absolute sketch budget in signature units (one
	// unit = one stored 32-bit hash key = 32 buffer bits = 4 bytes). When
	// positive it overrides BudgetFraction; useful for long-lived indexes
	// taking dynamic inserts, whose budget should not be tied to the
	// initial data size.
	BudgetUnits int
	// BufferBits is the frequent-element buffer size r in bits per record:
	// AutoBuffer (default) for cost-model selection, NoBuffer for none, or
	// a positive bit count (rounded up to a byte multiple).
	BufferBits int
	// Seed fixes all hashing; indexes built with different seeds are
	// incomparable. The zero seed is valid.
	Seed uint64
}

// withDefaults fills zero fields with defaults.
func (o Options) withDefaults() Options {
	if o.BudgetFraction == 0 {
		o.BudgetFraction = 0.10
	}
	return o
}

// CheckOptions refuses by name, for the build and every root engine, a
// BudgetFraction outside [0, 1] (NaN too), a negative BudgetUnits and a
// BufferBits below NoBuffer; one past maxBufferBits is the build's to clamp.
func CheckOptions(o Options) error {
	switch {
	case !(o.BudgetFraction >= 0 && o.BudgetFraction <= 1):
		return fmt.Errorf("core: BudgetFraction %v outside [0, 1]", o.BudgetFraction)
	case o.BudgetUnits < 0:
		return fmt.Errorf("core: negative BudgetUnits %d", o.BudgetUnits)
	case o.BufferBits < NoBuffer:
		return fmt.Errorf("core: BufferBits %d is not AutoBuffer, NoBuffer or positive", o.BufferBits)
	}
	return nil
}

// Budget resolves the options to units for n element occurrences.
func Budget(o Options, n int) int {
	if o.BudgetUnits > 0 {
		return o.BudgetUnits
	}
	return int(o.withDefaults().BudgetFraction * float64(n))
}
