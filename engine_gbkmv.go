package gbkmv

import (
	"gbkmv/internal/core"
	"gbkmv/internal/snapfmt"
)

// The flagship engine: the GB-KMV *Index itself. The Engine methods below
// complement the existing concrete API (Build/Search/SearchTopK/Estimate/
// Add/AddBatch/Len/Record/Save all predate the interface), so current
// callers compile unchanged while the index plugs into the registry.

func init() {
	registerStaged("gbkmv",
		func(records []Record, opt EngineOptions) (Engine, error) {
			return Build(records, opt.indexOptions())
		},
		func(r *snapfmt.Reader) (func() (Engine, error), error) {
			finish, err := parseIndex(r)
			if err != nil {
				return nil, err
			}
			return func() (Engine, error) { return finish() }, nil
		},
	)
}

// parseIndex is the staged form of Load: the core index's stream part now,
// its inverted lists in the returned finish.
func parseIndex(r *snapfmt.Reader) (func() (*Index, error), error) {
	finish, err := core.LoadStaged(r)
	if err != nil {
		return nil, err
	}
	return func() (*Index, error) {
		inner, err := finish()
		if err != nil {
			return nil, err
		}
		return &Index{inner: inner}, nil
	}, nil
}

var _ Engine = (*Index)(nil)

// EngineName returns "gbkmv": the index is the registry's flagship engine.
func (ix *Index) EngineName() string { return "gbkmv" }

// PrepareQuery implements Engine, wrapping Prepare's concrete *Query in the
// engine-generic PreparedQuery contract.
func (ix *Index) PrepareQuery(q Record) PreparedQuery {
	return indexPrepared{ix.Prepare(q)}
}

// EngineStats implements Engine; it is Stats projected onto the
// cross-engine shape.
func (ix *Index) EngineStats() EngineStats {
	st := ix.Stats()
	return EngineStats{
		Engine:      ix.EngineName(),
		NumRecords:  st.NumRecords,
		SizeBytes:   st.SizeBytes,
		BufferBytes: st.BufferBytes,
		SketchBytes: st.SketchBytes,
		RecordBytes: st.RecordBytes,
		IndexBytes:  st.IndexBytes,
		BudgetUnits: st.BudgetUnits,
		UsedUnits:   st.UsedUnits,
		BufferBits:  st.BufferBits,
		Tau:         st.Tau,
	}
}

// indexPrepared adapts *Query to PreparedQuery. Query.Clone returns the
// concrete *Query (the ergonomic form for direct Index users), so the
// interface's Clone needs this one-method wrapper.
type indexPrepared struct{ *Query }

func (p indexPrepared) Clone() PreparedQuery { return indexPrepared{p.Query.Clone()} }
