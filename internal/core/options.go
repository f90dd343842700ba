// Package core implements GB-KMV, the paper's contribution: a G-KMV sketch
// augmented with a per-record bitmap buffer that stores the top-r most
// frequent elements exactly (Section IV). It provides index construction
// (Algorithm 1), containment similarity search (Algorithm 2), an
// inverted-index accelerated search in the spirit of the paper's PPjoin*
// integration, the variance-based cost model that selects the buffer size r
// (Section IV-C6), and dynamic record insertion.
package core

import "errors"

// CostModel selects how the optimal buffer size is estimated.
type CostModel int

const (
	// CostModelEmpirical evaluates the paper's variance function using the
	// dataset's actual element-frequency and record-size distributions.
	// This is the default: it is what the closed form approximates, and it
	// requires no distributional assumption.
	CostModelEmpirical CostModel = iota
	// CostModelClosedForm evaluates the variance function from fitted
	// power-law exponents (α1, α2) as in the paper's Equation 33.
	CostModelClosedForm
)

// AutoBuffer requests cost-model selection of the buffer size.
const AutoBuffer = -1

// BufferUnitBits is the number of buffer bits that cost one budget unit.
// The paper charges r/32 units per record for an r-bit buffer, i.e. one
// budget unit corresponds to one 32-bit signature value — which is what a
// stored hash value is (hash.Key32): unit = one 32-bit key = 32 buffer bits
// = 4 bytes, in the budget and in memory alike.
const BufferUnitBits = 32

// Options configures GB-KMV index construction.
type Options struct {
	// BudgetFraction is the sketch budget as a fraction of the dataset's
	// total element count (the paper's "SpaceUsed", default 0.10).
	// Ignored when BudgetUnits > 0.
	BudgetFraction float64
	// BudgetUnits is the absolute budget in signature units (one unit = one
	// stored 32-bit key = 32 buffer bits = 4 bytes). Zero means use
	// BudgetFraction.
	BudgetUnits int
	// BufferBits is the buffer size r in bits. AutoBuffer (-1) selects r
	// with the cost model; 0 disables the buffer (pure G-KMV); positive
	// values are used as given (rounded up to a multiple of 8).
	BufferBits int
	// Seed fixes the hash function; all sketches in one index share it.
	Seed uint64
	// CostModel picks the buffer-size estimator when BufferBits ==
	// AutoBuffer.
	CostModel CostModel
	// CostModelPairSample bounds the number of record sizes sampled when
	// averaging the model variance over record pairs (default 128).
	CostModelPairSample int
	// BufferGridStep is the spacing of candidate r values tried by the
	// cost model (default 8 bits, matching the paper's "assign 8, 16,
	// 24, ... to r").
	BufferGridStep int
}

// withDefaults fills zero fields with defaults.
func (o Options) withDefaults() Options {
	if o.BudgetFraction == 0 {
		o.BudgetFraction = 0.10
	}
	if o.CostModelPairSample == 0 {
		o.CostModelPairSample = 128
	}
	if o.BufferGridStep == 0 {
		o.BufferGridStep = 8
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
	if o.BufferBits < AutoBuffer {
		return errors.New("core: BufferBits must be ≥ -1")
	}
	if o.BufferGridStep < 0 {
		return errors.New("core: BufferGridStep must be non-negative")
	}
	if o.CostModel != CostModelEmpirical && o.CostModel != CostModelClosedForm {
		return errors.New("core: unknown cost model")
	}
	return nil
}
