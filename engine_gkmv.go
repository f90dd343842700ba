package gbkmv

import "gbkmv/internal/snapfmt"

// The "gkmv" engine is the pure G-KMV sketch of Section IV-A(2): the GB-KMV
// index with the frequent-element buffer disabled (Options.BufferBits =
// NoBuffer), so the whole budget goes to hash values under the global
// threshold τ. It exists as a first-class engine because the paper's
// ablations (Fig. 6) treat it as its own system, and because buffer-free
// sketches are the right choice when element frequencies are near-uniform
// (the buffer then buys nothing).

func init() {
	registerStaged("gkmv",
		func(records []Record, opt EngineOptions) (Engine, error) {
			o := opt.indexOptions()
			o.BufferBits = NoBuffer
			ix, err := Build(records, o)
			if err != nil {
				return nil, err
			}
			return gkmvEngine{ix}, nil
		},
		func(r *snapfmt.Reader) (func() (Engine, error), error) {
			finish, err := parseIndex(r)
			if err != nil {
				return nil, err
			}
			return func() (Engine, error) {
				ix, err := finish()
				if err != nil {
					return nil, err
				}
				return gkmvEngine{ix}, nil
			}, nil
		},
	)
}

// gkmvEngine re-labels a buffer-less GB-KMV index. Everything but the name
// is the embedded index; the serialized payload is the core index format, so
// only the engine header distinguishes the two (and Load dispatches on it).
type gkmvEngine struct{ *Index }

func (e gkmvEngine) EngineName() string { return "gkmv" }

func (e gkmvEngine) EngineStats() EngineStats {
	st := e.Index.EngineStats()
	st.Engine = "gkmv"
	return st
}
