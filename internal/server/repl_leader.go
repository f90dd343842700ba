package server

import (
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
)

// Leader side of replication (see also repl_apply.go for the follower side
// and internal/repl for the follower process logic).
//
// The journal is already the exact shape of a replication stream: a
// length-prefixed, CRC-framed, strictly-ordered log whose durable frontier
// (SyncedOffset) only ever advances within a generation. The leader
// therefore ships *raw journal bytes*: GET /collections/{name}/wal serves
// the sealed, fsynced range [from, SyncedOffset) of the requested
// generation's journal file — never a byte that is not yet durable, so a
// follower can never apply a commit group the leader could still lose.
// Followers bootstrap from the snapshot-transfer endpoints (repl/manifest +
// repl/file), which serve the committed generation's files, then tail the
// wal stream and append the frames verbatim to their own journal — the
// follower's on-disk journal is byte-identical to the leader's by
// construction, so offsets are directly comparable and replica lag in bytes
// is an exact subtraction.
//
// Generations: a snapshot truncates the journal and bumps the generation,
// which would strand a tailing follower. The wal remembers the
// superseded generation's final synced offset (prevGen/prevFinal); a
// follower that streamed the old journal to exactly that offset holds
// exactly the snapshot's state and is told, via the X-Gbkmv-Next-Generation
// header, to roll its own generation forward and resume at offset 0. Any
// other cross-generation request gets 410 Gone and re-bootstraps — the old
// journal file no longer exists, so there is nothing to resume from.

const (
	// defaultWALChunk bounds one wal response; followers re-request from
	// their advanced offset, so a bound costs one round trip per chunk, not
	// correctness. maxWALChunk caps what a client may ask for.
	defaultWALChunk = 4 << 20
	maxWALChunk     = 32 << 20
	// maxWALWait caps the long-poll: long enough to make an idle stream
	// cheap, short enough to stay under intermediary idle timeouts.
	maxWALWait = 55 * time.Second
)

// Replication stream headers. X-Gbkmv-Generation and X-Gbkmv-Synced-Offset
// describe the generation the response's byte range belongs to;
// X-Gbkmv-Wal-Entries is the leader's applied entry count in its current
// journal (the entries-lag signal); X-Gbkmv-Next-Generation, when present,
// tells a fully-caught-up follower of a superseded generation to roll
// forward and resume at offset 0.
const (
	hdrWALGeneration = "X-Gbkmv-Generation"
	hdrWALSynced     = "X-Gbkmv-Synced-Offset"
	hdrWALEntries    = "X-Gbkmv-Wal-Entries"
	hdrWALNextGen    = "X-Gbkmv-Next-Generation"
	// hdrWALChunkStart echoes the from offset a chunk response actually
	// starts at. The follower verifies it against what it asked for, so a
	// duplicated/replayed response (a retrying proxy, a confused cache)
	// is detected before its frames are appended at the wrong offset.
	hdrWALChunkStart = "X-Gbkmv-Chunk-Start"
	// hdrWALChainDepth is the serving node's distance from the true leader
	// (0 on the leader itself). A follower sets its own depth to the
	// upstream's value plus one — the chain-depth gauge and a sanity signal
	// for chained topologies.
	hdrWALChainDepth = "X-Gbkmv-Chain-Depth"
	// hdrFileSize / hdrFileCRC64 ride on repl/file snapshot responses: the
	// committed generation's size and CRC64 for the served file, straight
	// from the commit record. The follower verifies each transferred file
	// against them on arrival — a truncated or corrupted transfer is retried
	// per file instead of poisoning the whole bootstrap.
	hdrFileSize  = "X-Gbkmv-File-Size"
	hdrFileCRC64 = "X-Gbkmv-File-Crc64"
)

func (h *api) setWALHeaders(w http.ResponseWriter, gen uint64, synced int64, entries int) {
	hd := w.Header()
	hd.Set(hdrWALGeneration, strconv.FormatUint(gen, 10))
	hd.Set(hdrWALSynced, strconv.FormatInt(synced, 10))
	hd.Set(hdrWALEntries, strconv.Itoa(entries))
	depth := int64(0)
	if r := h.store.role(); r != nil {
		depth = r.ChainDepth()
	}
	hd.Set(hdrWALChainDepth, strconv.FormatInt(depth, 10))
}

// fenceStale answers a replication request whose position this node no
// longer serves: 410 Gone plus the current generation header, so a fenced
// peer — typically a resurrected old leader — can tell "I must re-bootstrap
// against generation G" apart from an unreachable or confused node, and
// demote into a follower instead of diverging.
func (h *api) fenceStale(w http.ResponseWriter, c *Collection, curGen uint64, format string, args ...any) {
	w.Header().Set(hdrWALGeneration, strconv.FormatUint(curGen, 10))
	h.store.metrics.fencing.With(c.name).Inc()
	writeError(w, http.StatusGone, format, args...)
}

// walStream serves GET /collections/{name}/wal?gen=G&from=F[&wait=D][&max=N]:
// raw journal frames of generation G from offset F up to the durable
// frontier, at most max bytes. A caught-up request with wait long-polls
// until the frontier moves (or the wait elapses — an empty 200 with fresh
// headers, which doubles as the lag probe). Cross-generation handling is
// described at the top of this file.
func (h *api) walStream(w http.ResponseWriter, r *http.Request) {
	c, ok := h.collection(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "wal: bad gen %q", q.Get("gen"))
		return
	}
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil || from < 0 {
		writeError(w, http.StatusBadRequest, "wal: bad from %q", q.Get("from"))
		return
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, "wal: bad wait %q", ws)
			return
		}
		if wait > maxWALWait {
			wait = maxWALWait
		}
	}
	max := int64(defaultWALChunk)
	if ms := q.Get("max"); ms != "" {
		m, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || m <= 0 {
			writeError(w, http.StatusBadRequest, "wal: bad max %q", ms)
			return
		}
		if m < max {
			max = m
		} else if m > maxWALChunk {
			max = maxWALChunk
		} else {
			max = m
		}
	}
	deadline := time.Now().Add(wait)
	for {
		st := c.wal.follow()
		if !st.ok {
			writeError(w, http.StatusConflict,
				"collection %q has no journal (replication requires a persistent leader)", c.name)
			return
		}
		switch {
		case gen == st.gen:
			if from > st.synced {
				// The follower claims bytes this node never made durable:
				// divergence (e.g. an old leader that journaled past the
				// fenced frontier before it died). Only a fresh bootstrap
				// can reconcile.
				h.fenceStale(w, c, st.gen,
					"offset %d is past the durable frontier %d of generation %d; re-bootstrap", from, st.synced, gen)
				return
			}
			if from < st.synced {
				h.serveWALChunk(w, c, st, from, max)
				return
			}
			if remain := time.Until(deadline); remain > 0 {
				t := time.NewTimer(remain)
				select {
				case <-st.notify:
				case <-t.C:
				case <-r.Context().Done():
				}
				t.Stop()
				if r.Context().Err() != nil {
					return
				}
				continue
			}
			h.setWALHeaders(w, st.gen, st.synced, st.entries)
			w.WriteHeader(http.StatusOK)
			return
		case gen == st.prevGen && from == st.prevFinal:
			// Clean handoff: the follower applied the superseded journal in
			// full, so its state equals the snapshot the current generation
			// started from.
			h.setWALHeaders(w, gen, st.prevFinal, st.entries)
			w.Header().Set(hdrWALNextGen, strconv.FormatUint(st.gen, 10))
			w.WriteHeader(http.StatusOK)
			return
		default:
			h.fenceStale(w, c, st.gen,
				"generation %d offset %d is no longer served (current generation %d); re-bootstrap", gen, from, st.gen)
			return
		}
	}
}

// serveWALChunk streams [from, min(synced, from+max)) of the generation's
// journal file. The range is immutable once durable — rollbacks never cut
// below the synced frontier — so reading it from a private descriptor while
// the writer appends beyond it is safe. A vanished file means a snapshot
// superseded the generation between status and open: 410, the follower
// re-syncs.
func (h *api) serveWALChunk(w http.ResponseWriter, c *Collection, st walStatus, from, max int64) {
	n := st.synced - from
	if n > max {
		n = max
	}
	f, err := os.Open(c.gens.journalFile(st.gen))
	if err != nil {
		writeError(w, http.StatusGone, "journal of generation %d is gone: %v", st.gen, err)
		return
	}
	defer f.Close()
	h.setWALHeaders(w, st.gen, st.synced, st.entries)
	w.Header().Set(hdrWALChunkStart, strconv.FormatInt(from, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.WriteHeader(http.StatusOK)
	io.Copy(w, io.NewSectionReader(f, from, n)) // past-first-byte errors are the client hanging up
}

// ReplManifest describes the leader's committed snapshot generation — what
// a follower needs to plan a bootstrap.
type ReplManifest struct {
	Name         string `json:"name"`
	Engine       string `json:"engine"`
	Generation   uint64 `json:"generation"`
	Records      int    `json:"records"`
	SyncedOffset int64  `json:"synced_offset"`
	WALEntries   int    `json:"wal_entries"`
}

// replManifest serves GET /collections/{name}/repl/manifest.
func (h *api) replManifest(w http.ResponseWriter, r *http.Request) {
	c, ok := h.collection(w, r)
	if !ok {
		return
	}
	st := c.wal.status()
	if !st.ok {
		writeError(w, http.StatusConflict,
			"collection %q has no journal (replication requires a persistent leader)", c.name)
		return
	}
	c.mu.RLock()
	engine := c.eng.EngineName()
	records := c.eng.Len()
	c.mu.RUnlock()
	writeJSON(w, http.StatusOK, ReplManifest{
		Name: c.name, Engine: engine, Generation: st.gen, Records: records,
		SyncedOffset: st.synced, WALEntries: st.entries,
	})
}

// replFile serves GET /collections/{name}/repl/file?gen=G&kind=meta|index|vocab:
// the committed generation's snapshot files, byte-for-byte. The gen
// parameter pins the transfer to the generation the follower planned from;
// if a snapshot supersedes it mid-bootstrap the follower gets 410 (or a
// meta whose generation no longer matches, which it verifies) and restarts
// the bootstrap.
func (h *api) replFile(w http.ResponseWriter, r *http.Request) {
	c, ok := h.collection(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "repl/file: bad gen %q", q.Get("gen"))
		return
	}
	kind := q.Get("kind")
	path, sumKey, ok := c.gens.snapshotFile(kind, gen)
	if !ok {
		writeError(w, http.StatusBadRequest, "repl/file: bad kind %q (want meta, index or vocab)", kind)
		return
	}
	st := c.wal.status()
	if !st.ok {
		writeError(w, http.StatusConflict,
			"collection %q has no journal (replication requires a persistent leader)", c.name)
		return
	}
	if gen != st.gen {
		h.fenceStale(w, c, st.gen, "generation %d is not the committed generation (%d)", gen, st.gen)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		writeError(w, http.StatusGone, "snapshot file of generation %d is gone: %v", gen, err)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "repl/file: %v", err)
		return
	}
	h.setWALHeaders(w, st.gen, st.synced, st.entries)
	if sumKey != "" {
		if sum, ok := c.gens.committedSum(gen, sumKey); ok {
			w.Header().Set(hdrFileSize, strconv.FormatInt(sum.Size, 10))
			w.Header().Set(hdrFileCRC64, sum.CRC64)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	w.WriteHeader(http.StatusOK)
	io.Copy(w, f)
}
