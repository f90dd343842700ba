package core

import (
	"fmt"
	"io"
	"math"

	"gbkmv/internal/hash"
	"gbkmv/internal/snapfmt"
)

// indexMagic opens an index stream. The layout after it (see DESIGN.md
// "Snapshot format" for the measured cost of each section):
//
//	options      BudgetFraction f64, BudgetUnits, BufferBits (zigzag), Seed,
//	             CostModel, CostModelPairSample, BufferGridStep
//	tau f64, bufferBits, budget
//	records      snapfmt records section (delta-coded)
//	bufferElems  count + uvarints, E_H in bit order
//	arena        key count, offsets as a raw uint32 slab (records+1),
//	             completeness bits, keys as a raw uint32 slab
//	buffers      words as a raw uint64 slab (records · ⌈bufferBits/64⌉)
//
// The arenas are the live slices: Save streams them out as they lie in
// memory and Load reads each straight into the slice the index keeps. Only
// the inverted lists are derived on load (one pass over the records).
const indexMagic = "GBKMVIDX"

// Save serializes the index. The stream is self-contained and includes both
// packed signature arenas, so Load reconstructs the exact same sketches and
// buffers without re-hashing the collection; nothing is staged in memory.
func (ix *Index) Save(w io.Writer) error {
	sw := snapfmt.NewWriter(w)
	sw.Magic(indexMagic)
	sw.Float64(ix.opt.BudgetFraction)
	sw.Int(ix.opt.BudgetUnits)
	sw.Varint(int64(ix.opt.BufferBits))
	sw.Uint64(ix.opt.Seed)
	sw.Int(int(ix.opt.CostModel))
	sw.Int(ix.opt.CostModelPairSample)
	sw.Int(ix.opt.BufferGridStep)
	sw.Float64(ix.Tau())
	sw.Int(ix.bufferBits)
	sw.Int(ix.budget)
	sw.Records(ix.records)
	sw.Elements(ix.bufferElems)
	sw.Int(len(ix.arena.keys))
	sw.Uint32s(ix.arena.offsets)
	sw.Bools(ix.arena.complete)
	sw.Uint32s(ix.arena.keys)
	sw.Uint64s(ix.bufArena.words)
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

// LoadStaged is Load split where the stream ends: it consumes exactly the
// index's bytes — every section validated, every slab in its final slice —
// and returns the work that no longer needs the stream (deriving the
// inverted lists). A container loading several indexes from one stream reads
// them in order and runs the finishes in parallel.
func LoadStaged(r io.Reader) (finish func() (*Index, error), err error) {
	sr := snapfmt.NewReader(r)
	ix := &Index{}
	sr.Magic(indexMagic)
	ix.opt.BudgetFraction = sr.Float64()
	ix.opt.BudgetUnits = sr.Int()
	ix.opt.BufferBits = int(sr.Varint())
	ix.opt.Seed = sr.Uint64()
	ix.opt.CostModel = CostModel(sr.Int())
	ix.opt.CostModelPairSample = sr.Int()
	ix.opt.BufferGridStep = sr.Int()
	tau := sr.Float64()
	ix.bufferBits = sr.Int()
	ix.budget = sr.Int()
	// The threshold travels as τ and must come back as the key it was: a τ
	// between two key boundaries is no index's.
	var ok bool
	if ix.cut, ok = hash.UnitKey(tau); sr.Err() == nil && (!ok || ix.Tau() != tau) {
		sr.Corrupt("threshold %v is not a key boundary in (0, 1]", tau)
	}
	if ix.bufferBits > math.MaxInt32 {
		sr.Corrupt("buffer of %d bits", ix.bufferBits)
	}
	ix.records = sr.Records()
	m := len(ix.records)
	if sr.Err() == nil && m == 0 {
		sr.Corrupt("index has no records")
	}
	ix.bufferElems = sr.Elements()
	if len(ix.bufferElems) > ix.bufferBits {
		sr.Corrupt("%d buffered elements for %d buffer bits", len(ix.bufferElems), ix.bufferBits)
	}
	nkeys := sr.Int()
	if err := checkArenaRoom(nkeys); err != nil {
		sr.Corrupt("%v", err)
	}
	ix.arena.offsets = sr.Uint32s(m + 1)
	ix.arena.complete = sr.Bools(m)
	ix.arena.keys = sr.Uint32s(nkeys)
	if sr.Err() == nil && !ix.arena.valid(m, ix.cut) {
		sr.Corrupt("signature arena is inconsistent")
	}
	if sr.Err() == nil && ix.bufferBits > 0 {
		ix.bufArena.bits = ix.bufferBits
		ix.bufArena.stride = (ix.bufferBits + bufWordBits - 1) / bufWordBits
		if ix.bufArena.stride > math.MaxInt/m {
			sr.Corrupt("buffer of %d bits for %d records overflows", ix.bufferBits, m)
		} else {
			ix.bufArena.words = sr.Uint64s(m * ix.bufArena.stride)
		}
	}
	if sr.Err() == nil && !ix.bufArena.valid(m, ix.bufferBits) {
		sr.Corrupt("buffer arena is inconsistent")
	}
	if err := sr.Done(); err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	return func() (*Index, error) {
		ix.bitOf = make(map[hash.Element]int, len(ix.bufferElems))
		for i, e := range ix.bufferElems {
			ix.bitOf[e] = i
		}
		if err := ix.rebuildPostings(); err != nil {
			return nil, fmt.Errorf("core: reading index: %w: %v", snapfmt.ErrCorrupt, err)
		}
		return ix, nil
	}, nil
}
