package gbkmv

// The flagship engine is the GB-KMV *Index itself: the Engine methods below
// complement its concrete API (Build/Search/SearchTopK/Estimate/Add/AddBatch/
// Len/Record/Save all predate the interface).
//
// The "gkmv" engine is the pure G-KMV sketch of Section IV-A(2): the same
// index with the frequent-element buffer disabled (BufferBits = NoBuffer), so
// the whole budget goes to hash values under the global threshold τ. It is
// registered under its own name because the paper's ablations (Fig. 6) treat
// it as its own system. It is a yardstick like the other baselines, with no
// snapshot format: a GB-KMV engine built with BufferBits = NoBuffer is the
// same sketch, and saves.

func init() {
	for _, name := range []string{"gbkmv", "gkmv"} {
		register(name, func(c *Corpus, opt EngineOptions) (Engine, error) {
			o := opt.index()
			if name == "gkmv" {
				o.BufferBits = NoBuffer
			}
			ix, err := buildIndex(c, o)
			if err != nil {
				return nil, err
			}
			ix.name = name
			return ix, nil
		})
	}
}

var _ Engine = (*Index)(nil)

// EngineName returns the registry name the index was built under: "gbkmv",
// or "gkmv" for one NewEngine built under that name.
func (ix *Index) EngineName() string {
	if ix.name == "" {
		return DefaultEngine
	}
	return ix.name
}

// PrepareQuery implements Engine; it is Prepare.
func (ix *Index) PrepareQuery(q Record) PreparedQuery { return ix.Prepare(q) }

// EngineStats implements Engine; it is Stats.
func (ix *Index) EngineStats() EngineStats { return ix.Stats() }
