package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gbkmv"
)

// writeAllocsCollection builds the insert fixture — budget headroom (τ = 1)
// and a 64-bit buffer, as serve-write runs — in a store on dir ("" for
// memory-only), and returns bodies of four 46-token records of known tokens.
func writeAllocsCollection(t *testing.T, dir string, n int) (*Store, *Collection, [][]byte) {
	t.Helper()
	records := benchCollectionRecords(t, n)
	store, err := NewStore(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	voc := gbkmv.NewVocabulary()
	recs := make([]gbkmv.Record, len(records))
	for i, tokens := range records {
		recs[i] = voc.Record(tokens)
	}
	eng, err := gbkmv.Build(recs, gbkmv.Options{BudgetUnits: 64 << 20, BufferBits: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c, err := store.Create("c", voc, eng)
	if err != nil {
		t.Fatal(err)
	}
	var long [][]string
	for _, r := range records {
		if len(r) >= 46 {
			long = append(long, r[:46])
		}
	}
	var bodies [][]byte
	for i := 0; i+4 <= len(long) && len(bodies) < 16; i += 4 {
		body, err := json.Marshal(refInsertRequest{Records: long[i : i+4]})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return store, c, bodies
}

// TestWritePathAllocs pins what an insert request allocates between net/http
// handing it over and its acknowledgement: four 46-token records of known
// tokens (a 1.2 kB body) through Handler, with a request and a ResponseWriter
// that are reused, on a memory-only and on a persistent store. The bounds are
// the measured figures plus a fifth. What is left, 7 objects and 227 bytes in
// memory: the request id and its header slice, ServeMux's path values and
// MaxBytesReader (net/http's 4), the commit batch, the ids and the collection
// growing — new posting lists and, in the bytes, grown ones doubling; the
// arenas and the packed records take a chunk every few hundred records and
// copy nothing (the least of eight rounds of 25 inserts leaves the chunk
// out). A persistent store adds the commit group, its done channel and its
// member list: 10 objects, 395 bytes. Through the one-segment wrapper the
// collection was until the segmented layer went, the same insert took 8 / 11
// objects and 259 / 427 bytes (memory-only / persistent); while the body
// became a [][]string, each frame a json.Marshal, each record a fresh
// []Element and the acknowledgement a map through reflection, 52 / 55 objects
// and 11.5 / 11.7 kB.
func TestWritePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector (instrumented allocs, lossy sync.Pool)")
	}
	for _, c := range []struct {
		persistent bool
		allocs     float64
		bytes      float64
	}{
		{false, 7, 230},
		{true, 10, 400},
	} {
		dir := ""
		if c.persistent {
			dir = t.TempDir()
		}
		store, _, bodies := writeAllocsCollection(t, dir, 5000)
		if len(bodies) < 16 {
			t.Fatalf("only %d insert bodies of 4x46 tokens", len(bodies))
		}
		h := Handler(store)
		rw := &benchRW{h: make(http.Header)}
		rd := bytes.NewReader(nil)
		req := &http.Request{Method: "POST", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: make(http.Header), Host: "t", Body: io.NopCloser(rd)}
		req.URL, _ = url.Parse("/collections/c/records")
		next := 0
		insert := func() {
			body := bodies[next%len(bodies)]
			next++
			rd.Reset(body)
			req.ContentLength = int64(len(body))
			rw.code = 0
			h.ServeHTTP(rw, req)
			if rw.code != http.StatusOK {
				t.Fatalf("insert: status %d", rw.code)
			}
		}
		const runs = 200
		insert() // the pools' buffers
		allocs := testing.AllocsPerRun(runs, insert)
		// The least of a few rounds: a round a collection cycle falls into
		// also pays for the pooled scratch the cycle dropped, and one in which
		// a store of the engine opens its next chunk for that (every 400
		// records the arena's keys; at the 1 024th, five tables at once).
		bytes := math.Inf(1)
		for round := 0; round < 8; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs/8; i++ {
				insert()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/(runs/8))
		}
		t.Logf("persistent=%v: %.1f allocations, %.0f bytes an insert of 4x46 tokens", c.persistent, allocs, bytes)
		if maxAllocs, maxBytes := 1.2*c.allocs, 1.2*c.bytes; allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("persistent=%v: %.1f allocations and %.0f bytes an insert, want at most %.1f and %.0f",
				c.persistent, allocs, bytes, maxAllocs, maxBytes)
		}
		runtime.KeepAlive(store)
	}
}

// TestReplayAllocs pins what the two consumers of journal frames allocate.
// Startup: opening a store whose collection is 100 snapshotted records and a
// journal of 5 000 (276 000 tokens), as a multiple of the heap the opened
// store retains (vocabulary, packed records, sketch, postings): 1.99, of which
// the engine growing while the one replayed batch is applied is about 1.0 —
// its arenas and records a chunk at a time, once; its posting lists by
// doubling — the vocabulary growing 0.15 (its slab and offsets a chunk at a
// time, its id table by doubling; 0.5 of 2.14 while it was a map and a token
// list), and the element slab the batch is interned into (doubled as it
// grows) 0.8. While the engine's stores grew by append, copying themselves
// every 1.25×, this test measured 3.38; while replay also held the journal as
// a []journalEntry of json.Unmarshal-ed []string before interning any of it,
// 6.75. The follower: 256-frame chunks through ApplyReplicated allocate 11.8
// bytes a token — the replica's engine and vocabulary growing — 14 while the
// posting lists held 32-bit ids and the bit columns re-strided, 21 while the
// vocabulary held a string a token, 48 while the stores grew by append, and
// 120 while a chunk was also decoded through encoding/json.
func TestReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	dir := t.TempDir()
	store, c, _ := writeAllocsCollection(t, dir, 100)
	records := benchCollectionRecords(t, 5100)[100:]
	tokens := 0
	for i := 0; i < len(records); i += 100 {
		if _, err := c.Insert(records[i:i+100], ""); err != nil {
			t.Fatal(err)
		}
	}
	replicaStore, err := NewStore(t.TempDir(), func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	replica := replicaFromSnapshot(t, dir, replicaStore, "c", 1)

	// The crash: the directory opened again with nothing closed.
	var before, opened, settled runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&before)
	reopened, err := NewStore(dir, func(string, ...any) {})
	runtime.ReadMemStats(&opened)
	runtime.GC()
	runtime.ReadMemStats(&settled)
	if err != nil {
		t.Fatal(err)
	}
	if rc, err := reopened.Get("c"); err != nil || rc.Stats().NumRecords != 5100 || rc.Stats().JournaledInserts != 5000 {
		t.Fatalf("reopened: %v", err)
	}
	allocated := float64(opened.TotalAlloc - before.TotalAlloc)
	retained := float64(settled.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("replay of 5000 records: %.0f bytes allocated, %.0f retained (%.2fx)", allocated, retained, allocated/retained)
	if limit := 1.2 * 1.99; allocated/retained > limit {
		t.Errorf("opening the store allocated %.2fx what it retains, want at most %.2fx", allocated/retained, limit)
	}
	runtime.KeepAlive(store)
	runtime.KeepAlive(reopened)

	// The follower, 256 frames a chunk; the first chunk sizes its buffers.
	journal, err := os.ReadFile(filepath.Join(dir, "c", "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	var from, chunks int64
	var chunkBytes uint64
	for from < int64(len(journal)) {
		to := from
		for frame := 0; frame < 256 && to < int64(len(journal)); frame++ {
			to += 12 + int64(binary.BigEndian.Uint32(journal[to:]))
		}
		var applied int
		got := allocBytes(func() { _, applied, err = replica.ApplyReplicated(1, from, journal[from:to]) })
		if err != nil || applied == 0 {
			t.Fatalf("chunk at %d: applied %d, %v", from, applied, err)
		}
		if chunks++; chunks > 1 {
			chunkBytes += got
			for _, r := range records[(chunks-1)*256 : min(int(chunks)*256, len(records))] {
				tokens += len(r)
			}
		}
		from = to
	}
	perToken := float64(chunkBytes) / float64(tokens)
	t.Logf("ApplyReplicated of %d chunks of 256 frames: %d bytes allocated for %d tokens (%.1f a token)", chunks-1, chunkBytes, tokens, perToken)
	if limit := 1.2 * 11.8; perToken > limit {
		t.Errorf("applying replicated chunks allocated %.1f bytes a token, want at most %.1f", perToken, limit)
	}
}
