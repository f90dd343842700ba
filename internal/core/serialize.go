package core

import (
	"fmt"
	"io"

	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// indexMagic opens an index stream. The layout after it (see DESIGN.md
// "Snapshot format" for the measured cost of each section):
//
//	options      BudgetFraction f64, BudgetUnits, BufferBits (zigzag), Seed
//	tau f64, bufferBits, budget
//	records      snapfmt records section (gaps coded by class)
//	bufferElems  count + uvarints, E_H in bit order
//
// Those are derive's inputs and the stream carries nothing else: the buffer
// rows, the summaries and the lists are a function of them, computed on load by the code that
// computed them at build time. A stream cannot hold a sketch that disagrees
// with its records, because it holds no sketch.
const indexMagic = "GBKMVIDX"

// Save serializes the index: its options, τ, r, budget, records and E_H.
// Nothing is staged in memory, and the records — nearly all of the stream —
// are the index's own packed slab, written as it is.
func (ix *Index) Save(w io.Writer) error {
	sw := snapfmt.NewWriter(w)
	sw.Magic(indexMagic)
	sw.Float64(ix.opt.BudgetFraction)
	sw.Int(ix.opt.BudgetUnits)
	sw.Varint(int64(ix.opt.BufferBits))
	sw.Uint64(ix.opt.Seed)
	sw.Float64(ix.Tau())
	sw.Int(ix.bufferBits)
	sw.Int(ix.budget)
	sw.Packed(&ix.recs)
	sw.Elements(ix.bufferElems)
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("core: writing index: %w", err)
	}
	return nil
}

// Load reconstructs an index written by Save. A stream that is not an index
// of the current format is snapfmt.ErrFormat.
func Load(r io.Reader) (*Index, error) {
	finish, err := LoadStaged(r)
	if err != nil {
		return nil, err
	}
	return finish()
}

// LoadStaged is Load split where the stream ends: it reads the index's
// bytes to the end of r, every section validated, and returns the work that
// no longer needs the stream — derive — so the two halves can be timed and
// bounded apart.
func LoadStaged(r io.Reader) (finish func() (*Index, error), err error) {
	sr := snapfmt.NewReader(r)
	ix := &Index{}
	sr.Magic(indexMagic)
	ix.opt.BudgetFraction = sr.Float64()
	ix.opt.BudgetUnits = sr.Int()
	ix.opt.BufferBits = int(sr.Varint())
	ix.opt.Seed = sr.Uint64()
	tau := sr.Float64()
	ix.bufferBits = sr.Int()
	ix.budget = sr.Int()
	// The threshold travels as τ and must come back as the key it was: a τ
	// between two key boundaries is no index's.
	var ok bool
	if ix.cut, ok = hash.UnitKey(tau); sr.Err() == nil && (!ok || ix.Tau() != tau) {
		sr.Corrupt("threshold %v is not a key boundary in (0, 1]", tau)
	}
	ix.recs = sr.Packed()
	ix.bufferElems = sr.Elements()
	// The rule every build checks of what it built (first error wins).
	if err := checkShape(ix.recs.Len(), ix.bufferBits, ix.budget, len(ix.bufferElems)); err != nil {
		sr.Corrupt("%v", err)
	}
	if err := sr.Done(); err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	return func() (*Index, error) {
		ix.bitOf = newBitTable(ix.bufferElems)
		if err := ix.derive(countElements(recordSource{packed: &ix.recs})); err != nil {
			return nil, fmt.Errorf("core: reading index: %w: %v", snapfmt.ErrCorrupt, err)
		}
		return ix, nil
	}, nil
}
