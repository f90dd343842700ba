package gbkmv

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"gbkmv/internal/core"
	"gbkmv/internal/snapfmt"
)

// Engine is the in-memory containment-search contract GB-KMV shares with the
// baselines of the paper's evaluation (Section V): every engine indexes the
// same []Record collections and answers the same threshold and top-k
// queries, so the experiments harness, the CLI and the benchmark compare the
// sketches under one search API.
//
// Engines are registered by name and constructed through the registry
// (NewEngine). The flagship engine is the GB-KMV *Index itself, and it is
// the only one with a snapshot format (SaveEngine, LoadEngine) and the only
// one gbkmvd serves; the baselines are yardsticks, built and searched in
// memory (see the README's "Choosing an engine").
//
// An Engine is safe for concurrent readers, but AddBatch must not run
// concurrently with anything else; serialize externally.
type Engine interface {
	// Len returns the number of indexed records.
	Len() int
	// AddBatch appends records as one batch, returning their ids in order.
	// Engines that rebuild on insert pay the rebuild once per batch. Records
	// must be sorted and deduplicated (see Record); nothing checks it here.
	// recs and the records' arrays stay the caller's, who may reuse them once
	// AddBatch returns: an engine that keeps records keeps copies.
	AddBatch(recs []Record) []int
	// Search returns the ids of all records whose estimated containment
	// C(Q, X) reaches threshold, ascending. Approximate engines may return
	// false positives and miss true results; the "exact" engine returns the
	// ground truth.
	Search(q Record, threshold float64) []int
	// SearchTopK returns the k records with the highest estimated
	// containment, best first. Records with estimate 0 are never returned.
	SearchTopK(q Record, k int) []Scored
	// PrepareQuery builds a reusable prepared query, amortizing the query
	// sketching cost across searches.
	PrepareQuery(q Record) PreparedQuery
	// EngineStats reports the engine's configuration and footprint. Fields
	// that do not apply to a backend are zero.
	EngineStats() EngineStats
}

// PreparedQuery is a prepared query signature over one engine: the engine-
// specific sketch of the query, built once and reused. The GB-KMV index's
// concrete *Query implements it, and offers much more (Clone, the Append
// forms, per-search work counters). A PreparedQuery is not safe for
// concurrent use.
type PreparedQuery interface {
	// SearchScored returns the ids of all records whose estimated
	// containment is at least threshold with their estimates attached,
	// ascending by id, plus the total qualifying count. limit > 0 caps the
	// materialized hits (total still counts everything). Each returned
	// record is estimated once, and its score is the estimate that admitted
	// it.
	SearchScored(threshold float64, limit int) (hits []Scored, total int)
	// TopK returns the k best records by estimated containment, best first.
	TopK(k int) []Scored
	// SetSize overrides the true query size |Q|, exactly like Query.WithSize:
	// elements that cannot appear in any indexed record (e.g. tokens unknown
	// to the vocabulary) still belong to Q and shrink every containment.
	SetSize(n int)
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
}

// index is the GB-KMV index's share of the options.
func (o EngineOptions) index() Options {
	return Options{BudgetFraction: o.BudgetFraction, BudgetUnits: o.BudgetUnits, BufferBits: o.BufferBits, Seed: o.Seed}
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
// It is the one engine with a snapshot format.
const DefaultEngine = "gbkmv"

// engineBuild constructs an engine over a non-empty, validated corpus, and
// leaves the corpus empty: gbkmv and gkmv keep its store, the others their
// records decoded from it (Corpus.Records).
type engineBuild func(c *Corpus, opt EngineOptions) (Engine, error)

// engineRegistry is written only from this package's init functions.
var engineRegistry = map[string]engineBuild{}

// register installs a backend under name. Registering a name twice panics:
// silently replacing a backend would make NewEngine ambiguous.
func register(name string, build engineBuild) {
	if _, dup := engineRegistry[name]; dup {
		panic(fmt.Sprintf("gbkmv: engine %q registered twice", name))
	}
	engineRegistry[name] = build
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

// NewEngine builds the named engine over the records, coding them into a
// Corpus first, so the slice and its records stay the caller's. An empty name
// selects DefaultEngine.
func NewEngine(name string, records []Record, opt EngineOptions) (Engine, error) {
	c, err := packCorpus(records)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = DefaultEngine
	}
	build, ok := engineRegistry[name]
	if !ok {
		return nil, fmt.Errorf("gbkmv: unknown engine %q (have: %v)", name, Engines())
	}
	if err := checkBuild(c, opt); err != nil {
		return nil, err
	}
	return build(c, opt)
}

// NewEngineFromCorpus builds the GB-KMV engine over a corpus — a
// RecordBuilder's, which never held its records as slices — under the
// options NewEngine checks. The index takes the corpus over: c is empty
// afterwards. It is how gbkmvd builds a collection.
func NewEngineFromCorpus(c *Corpus, opt EngineOptions) (*Index, error) {
	if err := checkBuild(c, opt); err != nil {
		return nil, err
	}
	return buildIndex(c, opt.index())
}

// checkBuild refuses a corpus no engine is built over, or options none is
// built under.
func checkBuild(c *Corpus, opt EngineOptions) error {
	if c.Len() == 0 {
		return errors.New("gbkmv: no records")
	}
	if err := opt.validate(); err != nil {
		return err
	}
	// Every engine assumes the Record invariant; refuse a violation here. The
	// corpus noted it as it was coded.
	if err := c.recs.CheckSorted(); err != nil {
		return fmt.Errorf("gbkmv: %w (see NewRecord)", err)
	}
	return nil
}

// ErrSnapshotFormat is returned (wrapped) by LoadEngine, Load and
// LoadVocabulary for a stream that is not a snapshot of the current format:
// the magic, the format version or the engine named in the header did not
// match. The bytes may be an intact snapshot from an older build — there is
// one format and no reader for any other — so the remedy is to rebuild the
// collection from its records, not to treat the file as corrupt.
var ErrSnapshotFormat = snapfmt.ErrFormat

// An engine stream is the magic and format version, the engine's registry
// name — always DefaultEngine — then the GB-KMV index's own payload (see
// DESIGN.md "Snapshot format").
const engineMagic = "GBKMVENG"

// maxEngineName bounds the registry name a snapshot header can carry.
const maxEngineName = 255

// SaveEngine serializes a GB-KMV engine as the stream LoadEngine reads,
// streaming through one fixed buffer: nothing of the collection's size is
// staged in memory. Any other engine is refused: the baselines are built and
// searched in memory only.
func SaveEngine(w io.Writer, e Engine) error {
	ix, ok := e.(*Index)
	if !ok || ix.EngineName() != DefaultEngine {
		return fmt.Errorf("gbkmv: a %q engine has no snapshot format; only %q has", e.EngineStats().Engine, DefaultEngine)
	}
	sw := snapfmt.NewWriter(w)
	sw.Magic(engineMagic)
	sw.String(DefaultEngine)
	if err := ix.Save(sw); err != nil {
		sw.Fail(err)
	}
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("gbkmv: writing %q engine snapshot: %w", DefaultEngine, err)
	}
	return nil
}

// LoadEngine reads an engine written by SaveEngine; each section goes
// straight from the stream into the slice the index keeps. The stream must
// end where the snapshot does, and is read to that end before anything is
// derived from it (a reader that notes its last Read has timed the two halves
// apart). Anything that does not open with a current-format header naming
// DefaultEngine is ErrSnapshotFormat: among it the segmented container
// ("GBKMVSEG") that builds before one index per collection wrote, and the
// snapshots of the baseline engines that builds before gbkmvd served GB-KMV
// only wrote.
func LoadEngine(r io.Reader) (*Index, error) {
	finish, err := loadEngineStaged(r)
	if err != nil {
		return nil, err
	}
	return finish()
}

// loadEngineStaged is LoadEngine's stream half: everything that reads r, to
// its end. The returned finish derives the sketch from what was read.
func loadEngineStaged(r io.Reader) (finish func() (*Index, error), err error) {
	sr := snapfmt.NewReader(r)
	sr.Magic(engineMagic)
	name := sr.String(maxEngineName)
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("gbkmv: reading engine header: %w", err)
	}
	if name != DefaultEngine {
		return nil, fmt.Errorf("gbkmv: a snapshot of a %q engine: %w", name, ErrSnapshotFormat)
	}
	derive, err := core.LoadStaged(sr)
	if err != nil {
		return nil, fmt.Errorf("gbkmv: loading %q engine: %w", name, err)
	}
	if err := sr.Done(); err != nil {
		return nil, fmt.Errorf("gbkmv: reading engine snapshot: %w", err)
	}
	return func() (*Index, error) {
		inner, err := derive()
		if err != nil {
			return nil, fmt.Errorf("gbkmv: loading %q engine: %w", name, err)
		}
		return &Index{inner: inner}, nil
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
	if len(rec)+unknown == 0 {
		return nil, ErrEmptyQuery
	}
	pq := e.PrepareQuery(rec)
	pq.SetSize(len(rec) + unknown)
	return pq, nil
}

// ErrEmptyQuery is PrepareTokens' error for a query without tokens.
var ErrEmptyQuery = errors.New("gbkmv: empty query")
