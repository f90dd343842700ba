// Package core implements GB-KMV, the paper's contribution: a G-KMV sketch
// augmented with a per-record bitmap buffer that stores the top-r most
// frequent elements exactly (Section IV). It provides index construction
// (Algorithm 1), containment similarity search (Algorithm 2), an
// inverted-index accelerated search in the spirit of the paper's PPjoin*
// integration, the variance-based cost model that selects the buffer size r
// (Section IV-C6), and dynamic record insertion.
package core

import "errors"

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

// validate rejects impossible configurations.
func (o Options) validate() error {
	if o.BudgetUnits < 0 {
		return errors.New("core: BudgetUnits must be non-negative")
	}
	if o.BudgetUnits == 0 && (o.BudgetFraction <= 0 || o.BudgetFraction > 1) {
		return errors.New("core: BudgetFraction must be in (0, 1]")
	}
	if o.BufferBits < NoBuffer {
		return errors.New("core: BufferBits must be AutoBuffer, NoBuffer or positive")
	}
	return nil
}
