package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// The generator is the benchmark's own: it shares no code with
// internal/dataset, so optimising that package can never move these inputs.
// Everything below is a pure function of (spec, seed, seconds); gen_test.go
// pins the result with a golden digest.

// Corpus shape (ISSUE: Zipf element popularity α≈1.1 over a 50k universe,
// power-law record sizes 20–500, ≈47 elements/record).
const (
	genUniverse  = 50000
	genAlphaFreq = 1.1
	genMinSize   = 20
	genMaxSize   = 500
	genAlphaSize = 2.35 // Pareto exponent of the base-set size; gives ≈47 elements/record after noise
	// Planted families: a base set plus members that keep a graded share of
	// it and add fresh noise, so every query has true matches on both sides
	// of its threshold.
	genFamilyMin   = 12
	genFamilyMax   = 24
	genKeepMin     = 0.30 // a member keeps U[genKeepMin, 1] of the base set
	genNoiseMax    = 0.40 // and adds up to this share of the base size in fresh elements
	genMinRecord   = 8
	probeRepeats   = 50
	subsetQueryMin = 8 // serve-read query lengths
	subsetQueryMax = 32
	// Accuracy is scored on whole-record queries of at least this length, at
	// accThreshold. One sampled hash value stands for 1/τ elements, so an
	// estimate resolves containment in steps of 1/(τ·|Q|): at the default 10%
	// budget τ ≈ 0.08, and a query much shorter than this has F1 well under
	// 0.5 — too low to show an accuracy regression (README, "Accuracy").
	accQueryMin  = 150
	accThreshold = 0.5
	// F1 must leave room to move both ways, or the metric says nothing:
	// set-up fails outside (accFloor, 0.98). The issue asked for 0.5; a
	// segmented collection gives each part its own τ and buffer, and at
	// -segments 2 that alone costs 0.15 of F1 (README, "Accuracy").
	accFloor = 0.35
)

// rng is splitmix64: tiny, seedable and frozen here, so the inputs do not
// depend on math/rand's implementation.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n), n < 2^32.
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// fork derives an independent stream, so adding draws to one part of the
// generator does not shift every later part.
func (r *rng) fork(tag uint64) *rng { return &rng{s: r.next() ^ tag*0xD6E8FEB86659FD93} }

// alias is Walker's alias table: O(1) draws from a fixed discrete
// distribution.
type alias struct {
	prob []float64
	alt  []int32
}

// newZipf builds the alias table of P(i) ∝ 1/(i+1)^s over [0, n).
func newZipf(n int, s float64) *alias {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	a := &alias{prob: make([]float64, n), alt: make([]int32, n)}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := range w {
		w[i] *= float64(n) / sum
		if w[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		a.prob[s], a.alt[s] = w[s], l
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range append(small, large...) {
		a.prob[i], a.alt[i] = 1, i
	}
	return a
}

func (a *alias) draw(r *rng) int {
	i := r.intn(len(a.prob))
	if r.float() < a.prob[i] {
		return i
	}
	return int(a.alt[i])
}

type opKind uint8

const (
	opSearch opKind = iota
	opTopK
	opInsert
	opSnapshot
)

func (k opKind) String() string {
	return [...]string{"search", "topk", "insert", "snapshot"}[k]
}

// op is one scheduled request. For search/topk arg indexes the query pool;
// for insert it is the offset of the request's first record in inputs.inserts.
type op struct {
	kind opKind
	arg  int32
}

// inputs is everything the program under test will be shown in one run.
type inputs struct {
	records [][]uint32 // the collection as built, each record sorted and distinct
	inserts [][]uint32 // the insert stream, in schedule order
	pool    [][]uint32 // distinct query bodies
	acc     [][]uint32 // accuracy queries: long whole records, scored against the oracle at accThreshold
	main    []op       // the measured phase
	probe   []op       // the op types the main mix lacks, run once after it
}

// countElements is the number of element occurrences in the sets.
func countElements(sets ...[][]uint32) (n int) {
	for _, set := range sets {
		for _, r := range set {
			n += len(r)
		}
	}
	return n
}

// recordGen emits the planted-family corpus.
type recordGen struct {
	r     *rng
	elems *alias
	seen  map[uint32]struct{}
}

// distinct draws n distinct elements by popularity.
func (g *recordGen) distinct(n int, into []uint32, avoid map[uint32]struct{}) []uint32 {
	for len(into) < n {
		e := uint32(g.elems.draw(g.r))
		if _, dup := avoid[e]; dup {
			continue
		}
		avoid[e] = struct{}{}
		into = append(into, e)
	}
	return into
}

func (g *recordGen) baseSize() int {
	for {
		s := int(float64(genMinSize) * math.Pow(1-g.r.float(), -1/(genAlphaSize-1)))
		if s <= genMaxSize {
			return s
		}
	}
}

// family appends one base set and its members to out.
func (g *recordGen) family(out [][]uint32) [][]uint32 {
	clear(g.seen)
	s := g.baseSize()
	base := g.distinct(s, make([]uint32, 0, s), g.seen)
	out = append(out, sorted(base))
	members := genFamilyMin + g.r.intn(genFamilyMax-genFamilyMin+1)
	perm := make([]uint32, s)
	for m := 1; m < members; m++ {
		keep := int(math.Round((genKeepMin + (1-genKeepMin)*g.r.float()) * float64(s)))
		noise := g.r.intn(int(genNoiseMax*float64(s)) + 1)
		if keep+noise < genMinRecord {
			keep = genMinRecord - noise
		}
		// Partial Fisher–Yates: the first keep entries are a uniform subset.
		copy(perm, base)
		for i := 0; i < keep; i++ {
			j := i + g.r.intn(s-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		rec := append(make([]uint32, 0, keep+noise), perm[:keep]...)
		// Noise avoids the whole base set (still in g.seen), so a member's
		// overlap with the base is exactly what it kept.
		rec = g.distinct(keep+noise, rec, g.seen)
		for _, e := range rec[keep:] {
			delete(g.seen, e)
		}
		out = append(out, sorted(rec))
	}
	return out
}

func sorted(r []uint32) []uint32 {
	sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
	return r
}

// generate makes the inputs of one run of w. seconds scales the op counts
// (a fixed count per second asked for, never a measured duration), so that
// state, journal length and every count repeat from run to run.
func generate(w *spec, seed uint64, seconds int) *inputs {
	root := &rng{s: seed*0x9E3779B97F4A7C15 ^ fnvString(w.name)}
	in := &inputs{}

	mainOps := w.opsPerSec * seconds
	sched := root.fork(1)
	if w.passes {
		// Cycles of three threshold-search passes over the whole pool and two
		// top-k passes over its first fifth (a top-k costs ten searches).
		// Every query comes round again and again against unchanged state:
		// timing needs that more than it needs distinct queries (load.go,
		// quietRepeats).
		cycle := 3*w.poolSize + 2*(w.poolSize/5)
		for c := 0; c < max(2, (mainOps+cycle/2)/cycle); c++ {
			for p := 0; p < 5; p++ {
				kind, n := opSearch, w.poolSize
				if p >= 3 {
					kind, n = opTopK, w.poolSize/5
				}
				for q := 0; q < n; q++ {
					in.main = append(in.main, op{kind, int32(q)})
				}
			}
		}
	} else {
		pop := newZipf(w.poolSize, w.zipfS)
		next := int32(0)
		for i := 0; i < mainOps; i++ {
			if w.snapshotHalfway && i == mainOps/2 {
				in.main = append(in.main, op{opSnapshot, 0})
			}
			u := sched.float()
			switch {
			case u < w.insertShare:
				in.main = append(in.main, op{opInsert, next})
				next += int32(w.insertBatch)
			case u < w.insertShare+w.topkShare:
				in.main = append(in.main, op{opTopK, int32(pop.draw(sched))})
			default:
				in.main = append(in.main, op{opSearch, int32(pop.draw(sched))})
			}
		}
	}
	nInsert := 0
	for _, o := range in.main {
		if o.kind == opInsert {
			nInsert += w.insertBatch
		}
	}
	// The probe covers the op types the main mix has none of, so that every
	// end-to-end metric is a measurement on every workload.
	probe := root.fork(2)
	for i := 0; i < w.probeInserts; i++ {
		in.probe = append(in.probe, op{opInsert, int32(nInsert)})
		nInsert += w.insertBatch
	}
	// Read probes run against a collection at rest, so they too repeat a few
	// queries many times (probeRepeats each) rather than many queries once.
	for _, rd := range []struct {
		kind opKind
		n    int
	}{{opSearch, w.probeSearches}, {opTopK, w.probeTopKs}} {
		keys := max(1, rd.n/probeRepeats)
		for i := 0; i < rd.n; i++ {
			in.probe = append(in.probe, op{rd.kind, int32(probe.intn(keys))})
		}
	}

	// Corpus: families until there are enough records, then one shuffle so
	// that a family's members are spread over the collection and the insert
	// stream alike.
	total := w.records + nInsert
	g := &recordGen{r: root.fork(3), elems: newZipf(genUniverse, genAlphaFreq), seen: map[uint32]struct{}{}}
	all := make([][]uint32, 0, total+genFamilyMax)
	for len(all) < total {
		all = g.family(all)
	}
	all = all[:total]
	sh := root.fork(4)
	for i := total - 1; i > 0; i-- {
		j := sh.intn(i + 1)
		all[i], all[j] = all[j], all[i]
	}
	// Record 0 is the lexicon: the genMaxSize most popular elements, in rank
	// order. The server numbers tokens in first-seen order and hashes the
	// numbers, so without it the seed would also decide which popular elements
	// hash under τ — and that luck alone moves F1 between 0.45 and 0.75
	// (README, "Accuracy"). With it the popular elements get the same ids,
	// hence the same hashes, on every seed.
	lexicon := make([]uint32, genMaxSize)
	for i := range lexicon {
		lexicon[i] = uint32(i)
	}
	all[0] = lexicon
	in.records, in.inserts = all[:w.records:w.records], all[w.records:]

	// Accuracy queries: distinct long records of the built collection. The
	// paper protocol times queries it scores, so there the first of them are
	// the pool as well.
	ar := root.fork(6)
	picked := make(map[int]struct{}, w.accQueries)
	for tries := 0; len(in.acc) < w.accQueries; tries++ {
		if tries > 200*w.records {
			panic("generate: too few records of accQueryMin elements for the accuracy sample")
		}
		i := ar.intn(w.records)
		if _, dup := picked[i]; dup || len(in.records[i]) < w.accMin() {
			continue
		}
		picked[i] = struct{}{}
		in.acc = append(in.acc, in.records[i])
	}
	if w.passes {
		in.pool = in.acc[:w.poolSize]
		return in
	}

	// Query pool: distinct indexed records, whole or an 8–32 element subset
	// of one (domain-search shape).
	qr := root.fork(5)
	clear(picked)
	for len(in.pool) < w.poolSize {
		i := qr.intn(w.records)
		if _, dup := picked[i]; dup {
			continue
		}
		picked[i] = struct{}{}
		rec := in.records[i]
		if w.subsetQueries {
			n := min(len(rec), subsetQueryMin+qr.intn(subsetQueryMax-subsetQueryMin+1))
			sub := append([]uint32(nil), rec...)
			for k := 0; k < n; k++ {
				j := k + qr.intn(len(sub)-k)
				sub[k], sub[j] = sub[j], sub[k]
			}
			rec = sorted(sub[:n])
		}
		in.pool = append(in.pool, rec)
	}
	return in
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// digest is the FNV-64a of every generated input, in a fixed order.
func (in *inputs) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, set := range [][][]uint32{in.records, in.inserts, in.pool, in.acc} {
		put(uint64(len(set)))
		for _, r := range set {
			put(uint64(len(r)))
			for _, e := range r {
				put(uint64(e))
			}
		}
	}
	for _, sched := range [][]op{in.main, in.probe} {
		put(uint64(len(sched)))
		for _, o := range sched {
			put(uint64(o.kind)<<32 | uint64(uint32(o.arg)))
		}
	}
	return h.Sum64()
}

// token is the wire form of an element. The program under test only ever
// sees these strings.
func appendToken(b []byte, e uint32) []byte {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	b = append(b, '"', 't')
	var tmp [8]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = digits[e%36]
		e /= 36
		if e == 0 {
			break
		}
	}
	b = append(b, tmp[i:]...)
	return append(b, '"')
}

func appendTokens(b []byte, rec []uint32) []byte {
	b = append(b, '[')
	for i, e := range rec {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendToken(b, e)
	}
	return append(b, ']')
}
