package gbkmv

import (
	"gbkmv/internal/core"
	"gbkmv/internal/snapfmt"
)

// The flagship engine is the GB-KMV *Index itself: the Engine methods below
// complement its concrete API (Build/Search/SearchTopK/Estimate/Add/AddBatch/
// Len/Record/Save all predate the interface).
//
// The "gkmv" engine is the pure G-KMV sketch of Section IV-A(2): the same
// index with the frequent-element buffer disabled (BufferBits = NoBuffer), so
// the whole budget goes to hash values under the global threshold τ. It is
// registered under its own name because the paper's ablations (Fig. 6) treat
// it as its own system, and because buffer-free sketches are the right choice
// when element frequencies are near-uniform (the buffer then buys nothing).
// Its payload is the core index format; only the engine header tells the two
// apart, and a load dispatches on it.

func init() {
	for _, name := range []string{"gbkmv", "gkmv"} {
		register(name, engineEntry{
			build: func(c *Corpus, opt EngineOptions) (Engine, error) {
				o := Options{
					BudgetFraction: opt.BudgetFraction,
					BudgetUnits:    opt.BudgetUnits,
					BufferBits:     opt.BufferBits,
					Seed:           opt.Seed,
				}
				if name == "gkmv" {
					o.BufferBits = NoBuffer
				}
				ix, err := buildIndex(c, o)
				if err != nil {
					return nil, err
				}
				ix.name = name
				return ix, nil
			},
			// The staged form of Load: the core index's stream part now, its
			// derived sketch in the returned finish.
			parse: func(r *snapfmt.Reader) (func() (Engine, error), error) {
				finish, err := core.LoadStaged(r)
				if err != nil {
					return nil, err
				}
				return func() (Engine, error) {
					inner, err := finish()
					if err != nil {
						return nil, err
					}
					return &Index{inner: inner, name: name}, nil
				}, nil
			},
		})
	}
}

var _ Engine = (*Index)(nil)

// EngineName returns the registry name the index was built or loaded under:
// "gbkmv", or "gkmv" for one that came through the registry under that name.
func (ix *Index) EngineName() string {
	if ix.name == "" {
		return DefaultEngine
	}
	return ix.name
}

// PrepareQuery implements Engine, wrapping Prepare's concrete *Query in the
// engine-generic PreparedQuery contract.
func (ix *Index) PrepareQuery(q Record) PreparedQuery {
	return indexPrepared{ix.Prepare(q)}
}

// EngineStats implements Engine; it is Stats.
func (ix *Index) EngineStats() EngineStats { return ix.Stats() }

// indexPrepared adapts *Query to PreparedQuery. Query.Clone returns the
// concrete *Query (the ergonomic form for direct Index users), so the
// interface's Clone needs this one-method wrapper.
type indexPrepared struct{ *Query }

func (p indexPrepared) Clone() PreparedQuery { return indexPrepared{p.Query.Clone()} }
