package gbkmv

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"gbkmv/internal/snapfmt"
)

// Engine is the pluggable sketch-engine interface: one containment-search
// contract over GB-KMV and every baseline backend of the paper's evaluation
// (Section V). All engines index the same []Record collections, answer the
// same Search/TopK/Estimate queries, and serialize behind a shared
// self-describing header, so callers — the gbkmvd server, the CLIs, the
// experiments harness — can swap the sketch under a stable search API.
//
// Engines are registered by name and constructed through the registry
// (NewEngine). The flagship engine is the GB-KMV *Index itself;
// baselines trade accuracy, space or mutability differently (see the
// per-engine documentation and the README's "Choosing an engine").
//
// An Engine is safe for concurrent readers (Search/TopK/Estimate/Stats/Save)
// but mutations (Add/AddBatch) must not run concurrently with anything else;
// serialize externally, as internal/server does with its per-collection
// RWMutex.
type Engine interface {
	// EngineName returns the registry name the engine was built under.
	EngineName() string
	// Len returns the number of indexed records.
	Len() int
	// Record returns the indexed record with id i. The returned slice must
	// not be mutated: most engines hand out the one they hold (gbkmv and gkmv
	// keep their records packed and decode a copy on each call).
	Record(i int) Record
	// Add appends a record, returning its id. Engines built around static
	// structures may rebuild internally; see each engine's documentation.
	Add(r Record) int
	// AddBatch appends records as one batch, returning their ids in order.
	// Engines that rebuild on insert pay the rebuild once per batch. Records
	// must be sorted and deduplicated (see Record); nothing checks it here,
	// and a collection holding one that is not cannot be saved. recs and the
	// records' arrays stay the caller's, who may reuse them once AddBatch
	// returns: an engine that keeps records keeps copies.
	AddBatch(recs []Record) []int
	// Search returns the ids of all records whose estimated containment
	// C(Q, X) reaches threshold, ascending. Approximate engines may return
	// false positives and miss true results; the "exact" engine returns the
	// ground truth.
	Search(q Record, threshold float64) []int
	// SearchTopK returns the k records with the highest estimated
	// containment, best first. Records with estimate 0 are never returned.
	SearchTopK(q Record, k int) []Scored
	// Estimate returns the estimated containment C(Q, X_i).
	Estimate(q Record, i int) float64
	// PrepareQuery builds a reusable prepared query, amortizing the query
	// sketching cost across a search and any number of estimates.
	PrepareQuery(q Record) PreparedQuery
	// EngineStats reports the engine's configuration and footprint. Fields
	// that do not apply to a backend are zero.
	EngineStats() EngineStats
	// BuildCounters returns monotonic write-path work counters: element hash
	// computations and fixed-budget threshold shrinks (see
	// Index.BuildCounters). They are the history of this process, not state
	// of the engine — a load hashes less than the build it reproduces — which
	// is why they are not part of EngineStats. Zero for the engines that do
	// not count them (all but gbkmv and gkmv).
	BuildCounters() (elementsHashed, shrinks uint64)
	// Save serializes the engine's payload. Use SaveEngine to write the
	// self-describing header + payload form that LoadEngine dispatches on.
	// Records are stored as deltas, so Save fails on a record that is not
	// sorted and deduplicated.
	Save(w io.Writer) error
}

// PreparedQuery is a prepared query signature over one engine: the engine-
// specific sketch of the query, built once and reused. It mirrors the
// concrete *Query of the GB-KMV index (which backs the "gbkmv" and "gkmv"
// engines) for every backend.
//
// A PreparedQuery is not safe for concurrent use: Clone it per goroutine
// (cloning is cheap — the underlying signature is shared, only the mutable
// per-query state is copied).
type PreparedQuery interface {
	// Search returns the ids of all records whose estimated containment is
	// at least threshold, ascending.
	Search(threshold float64) []int
	// SearchScored returns the hits Search would return with their
	// containment estimates attached, ascending by id, plus the total
	// qualifying count. limit > 0 caps the materialized hits (total still
	// counts everything). Each returned record is estimated exactly once,
	// which is why a serving layer should prefer this over Search followed
	// by per-hit Estimate calls.
	SearchScored(threshold float64, limit int) (hits []Scored, total int)
	// AppendSearchScored is SearchScored with the hits appended to dst, for a
	// caller that serves many queries from one buffer: with room in dst the
	// gbkmv and gkmv engines allocate nothing.
	AppendSearchScored(dst []Scored, threshold float64, limit int) (hits []Scored, total int)
	// TopK returns the k best records by estimated containment, best first.
	TopK(k int) []Scored
	// AppendTopK is TopK with the results appended to dst, as
	// AppendSearchScored is to SearchScored.
	AppendTopK(dst []Scored, k int) []Scored
	// Estimate returns the estimated containment C(Q, X_i).
	Estimate(i int) float64
	// Size returns the query size |Q| in use.
	Size() int
	// SetSize overrides the true query size |Q|, exactly like Query.WithSize:
	// elements that cannot appear in any indexed record (e.g. tokens unknown
	// to the vocabulary) still belong to Q and shrink every containment.
	SetSize(n int)
	// QueryStats returns the work counters of the most recent Search,
	// SearchScored or TopK on this prepared query (see Query.QueryStats).
	// Zero for the engines that do not count them (all but gbkmv and gkmv).
	QueryStats() QueryStats
	// Clone returns an independent copy for cheap per-goroutine reuse.
	Clone() PreparedQuery
}

// EngineStats describes a built engine. Engine and NumRecords are always
// set; the remaining fields are backend-specific and zero where they do not
// apply (e.g. Tau for MinHash-family engines, NumHashes for GB-KMV).
type EngineStats struct {
	Engine      string  // registry name
	NumRecords  int     // indexed records
	SizeBytes   int     // in-memory signature footprint
	BufferBytes int     // GB-KMV frequent-element buffer share of SizeBytes
	SketchBytes int     // GB-KMV key-store share of SizeBytes (4 bytes a stored key)
	RecordBytes int     // the retained records, beside SizeBytes (gbkmv/gkmv: the packed slab and its offsets; 0 where not reported)
	IndexBytes  int     // what search walks, beside SizeBytes (gbkmv/gkmv: inverted lists, bit columns, offset tables; 0 where not reported)
	BudgetUnits int     // configured budget (1 unit = one stored hash value; gbkmv/gkmv: one 32-bit key = 32 buffer bits = 4 bytes)
	UsedUnits   int     // units actually consumed
	BufferBits  int     // GB-KMV buffer size r
	Tau         float64 // KMV-family global hash threshold
	NumHashes   int     // MinHash-family signature length
}

// EngineOptions configures engine construction through the registry. Fields
// irrelevant to a backend are ignored; the zero value is valid for every
// engine.
type EngineOptions struct {
	// BudgetFraction is the sketch budget as a fraction of the total number
	// of element occurrences (default 0.10, the paper's "SpaceUsed"). Used
	// by the KMV-family engines, and to derive a default signature length
	// for the MinHash-family ones.
	BudgetFraction float64
	// BudgetUnits is the absolute budget in signature units, overriding
	// BudgetFraction when positive.
	BudgetUnits int
	// BufferBits is the GB-KMV frequent-element buffer size: AutoBuffer,
	// NoBuffer, or a positive bit count. Only the "gbkmv" engine reads it.
	BufferBits int
	// Seed fixes all hashing; engines built with different seeds are
	// incomparable. The zero seed is valid.
	Seed uint64
	// NumHashes is the MinHash-family signature length (k). Zero selects a
	// backend default (derived from the budget where that is meaningful).
	NumHashes int
	// NumPartitions is the LSH Ensemble equal-depth partition count
	// (default 32).
	NumPartitions int
	// MaxBands is the LSH Forest tree count / LSH Ensemble bands-per-
	// partition bound (default 32).
	MaxBands int
}

// budget resolves the option pair to absolute units for a collection with
// totalElements element occurrences.
func (o EngineOptions) budget(totalElements int) int {
	if o.BudgetUnits > 0 {
		return o.BudgetUnits
	}
	frac := o.BudgetFraction
	if frac == 0 {
		frac = 0.10
	}
	return int(frac * float64(totalElements))
}

// DefaultEngine is the engine used when no name is given: the GB-KMV index.
const DefaultEngine = "gbkmv"

// engineParser is a loader split where the stream ends: it consumes exactly
// the engine's payload and returns the work that no longer needs the stream
// (deriving inverted lists, rebuilding signatures), so a load times the read
// and the derive apart.
type engineParser func(r *snapfmt.Reader) (finish func() (Engine, error), err error)

// engineEntry is everything the registry knows about an engine.
type engineEntry struct {
	// resolve makes the engine's data-dependent option defaults explicit
	// against the collection they are derived from, m records of n element
	// occurrences in all (kmv's k = budget/m); nil for an engine whose
	// defaults are static. It is the only place such a default is derived, and
	// it is idempotent: the engine constructors run it before build, and the
	// engine keeps and saves the result, so a load finds every value set.
	resolve func(m, n int, opt EngineOptions) EngineOptions
	// build constructs the engine over a non-empty, validated corpus under
	// resolved options, and leaves the corpus empty: gbkmv and gkmv keep its
	// store, the others their records decoded from it (Corpus.Records).
	build func(c *Corpus, opt EngineOptions) (Engine, error)
	parse engineParser
}

// engineRegistry is written only from this package's init functions.
var engineRegistry = map[string]engineEntry{}

// register installs a backend under name. Registering a name twice panics:
// silently replacing a backend would make snapshot dispatch ambiguous.
func register(name string, e engineEntry) {
	if _, dup := engineRegistry[name]; dup {
		panic(fmt.Sprintf("gbkmv: engine %q registered twice", name))
	}
	engineRegistry[name] = e
}

// Engines returns the registered engine names, sorted.
func Engines() []string {
	names := make([]string, 0, len(engineRegistry))
	for n := range engineRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookupEngine returns the registry entry for name.
func lookupEngine(name string) (engineEntry, error) {
	e, ok := engineRegistry[name]
	if !ok {
		return e, fmt.Errorf("gbkmv: unknown engine %q (have: %v)", name, Engines())
	}
	return e, nil
}

// NewEngine builds the named engine over the records: it codes them into a
// Corpus and builds from that (NewEngineFromCorpus), so the slice and its
// records stay the caller's. An empty name selects DefaultEngine.
func NewEngine(name string, records []Record, opt EngineOptions) (Engine, error) {
	c, err := packCorpus(records)
	if err != nil {
		return nil, err
	}
	return NewEngineFromCorpus(name, c, opt)
}

// NewEngineFromCorpus builds the named engine over a corpus — a
// RecordBuilder's, which never held its records as slices. The engine takes
// the corpus over: c is empty afterwards. An empty name selects
// DefaultEngine.
func NewEngineFromCorpus(name string, c *Corpus, opt EngineOptions) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	e, err := lookupEngine(name)
	if err != nil {
		return nil, err
	}
	if c.Len() == 0 {
		return nil, errors.New("gbkmv: no records")
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	// Every engine assumes the Record invariant and the snapshot format
	// stores it (deltas); refuse a violation here rather than at Save. The
	// corpus noted it as it was coded.
	if err := c.recs.CheckSorted(); err != nil {
		return nil, fmt.Errorf("gbkmv: %w (see NewRecord)", err)
	}
	if e.resolve != nil {
		opt = e.resolve(c.Len(), c.Elements(), opt)
	}
	return e.build(c, opt)
}

// ErrSnapshotFormat is returned (wrapped) by LoadEngine, Load and
// LoadVocabulary for a stream that is not a snapshot of the current format:
// the magic or the format version did not match. The bytes may be an intact
// snapshot from an older build — there is one format and no reader for any
// other — so the remedy is to rebuild the collection from its records, not
// to treat the file as corrupt.
var ErrSnapshotFormat = snapfmt.ErrFormat

// An engine stream is the magic and format version, the engine's registry
// name, then the engine's own payload (see DESIGN.md "Snapshot format"). The
// name makes snapshots self-describing: LoadEngine dispatches to the engine
// that wrote them.
const engineMagic = "GBKMVENG"

// maxEngineName bounds the registry name a snapshot can carry.
const maxEngineName = 255

// SaveEngine serializes the engine as a self-describing stream LoadEngine
// dispatches on, streaming through one fixed buffer: nothing of the
// collection's size is staged in memory.
func SaveEngine(w io.Writer, e Engine) error {
	name := e.EngineName()
	if len(name) == 0 || len(name) > maxEngineName {
		return fmt.Errorf("gbkmv: engine name %q not serializable", name)
	}
	sw := snapfmt.NewWriter(w)
	sw.Magic(engineMagic)
	sw.String(name)
	if err := e.Save(sw); err != nil {
		sw.Fail(err)
	}
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("gbkmv: writing %q engine snapshot: %w", name, err)
	}
	return nil
}

// LoadEngine reads an engine written by SaveEngine, dispatching on the
// header to the engine that wrote it; each section goes straight from the
// stream into the slice the engine keeps. The stream must end where the
// snapshot does, and is read to that end before anything is derived from it
// (a reader that notes its last Read has timed the two halves apart).
// Anything that does not open with a current-format header is
// ErrSnapshotFormat, among it the segmented container ("GBKMVSEG") that
// builds before one index per collection wrote.
func LoadEngine(r io.Reader) (Engine, error) {
	finish, err := loadEngineStaged(r)
	if err != nil {
		return nil, err
	}
	return finish()
}

// loadEngineStaged is LoadEngine's stream half: everything that reads r, to
// its end. The returned finish does what no longer needs the stream —
// deriving the sketches of gbkmv/gkmv from their records, rebuilding the
// other engines.
func loadEngineStaged(r io.Reader) (finish func() (Engine, error), err error) {
	sr := snapfmt.NewReader(r)
	if finish, err = parseEngine(sr); err != nil {
		return nil, err
	}
	if err := sr.Done(); err != nil {
		return nil, fmt.Errorf("gbkmv: reading engine snapshot: %w", err)
	}
	return finish, nil
}

// parseEngine consumes one single-engine stream.
func parseEngine(sr *snapfmt.Reader) (func() (Engine, error), error) {
	sr.Magic(engineMagic)
	name := sr.String(maxEngineName)
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("gbkmv: reading engine header: %w", err)
	}
	entry, err := lookupEngine(name)
	if err != nil {
		return nil, fmt.Errorf("gbkmv: snapshot written by unregistered engine %q", name)
	}
	finish, err := entry.parse(sr)
	if err != nil {
		return nil, fmt.Errorf("gbkmv: loading %q engine: %w", name, err)
	}
	return func() (Engine, error) {
		e, err := finish()
		if err != nil {
			return nil, fmt.Errorf("gbkmv: loading %q engine: %w", name, err)
		}
		return e, nil
	}, nil
}

// PrepareTokens prepares a token query against any engine: tokens are
// converted through the vocabulary without interning (so queries never grow
// it), and distinct unknown tokens — which cannot match any record but still
// belong to Q — are counted into the containment denominator |Q| via
// SetSize. This is the one correct way to query by tokens; hand-rolling it
// and forgetting the size override silently inflates every estimate. An error
// is returned for an empty query.
func PrepareTokens(e Engine, voc *Vocabulary, tokens []string) (PreparedQuery, error) {
	rec, unknown := voc.QueryRecord(tokens)
	return PrepareElements(e, rec, len(rec)+unknown)
}

// PrepareElements is PrepareTokens for a caller that resolved the tokens
// itself: rec holds the elements of the query's known tokens and size is |Q|,
// its distinct tokens, known or not. The prepared query keeps rec.
func PrepareElements(e Engine, rec Record, size int) (PreparedQuery, error) {
	if size == 0 {
		return nil, errors.New("gbkmv: empty query")
	}
	pq := e.PrepareQuery(rec)
	pq.SetSize(size)
	return pq, nil
}
