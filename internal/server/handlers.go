package server

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"gbkmv"
)

// maxBodyBytes bounds request bodies (bulk builds included).
const maxBodyBytes = 256 << 20

// Handler serves the gbkmvd HTTP JSON API over a Store:
//
//	GET    /healthz                      liveness + collection count
//	GET    /readyz                       readiness (503 until startup loading finished)
//	GET    /metrics                      Prometheus text exposition
//	GET    /collections                  list collection names
//	PUT    /collections/{name}           build (or replace) from records or a server-side file
//	DELETE /collections/{name}           drop the collection and its on-disk state
//	GET    /collections/{name}/stats     sketch configuration and footprint
//	POST   /collections/{name}/records   dynamic insert (batched, journaled)
//	POST   /collections/{name}/search    threshold containment search
//	POST   /collections/{name}/topk      top-k containment search
//	POST   /collections/{name}/search:batch  many searches in one request
//	POST   /collections/{name}/topk:batch    many top-k queries in one request
//	POST   /collections/{name}/snapshot  persist now, truncating the journal
//	POST   /promote                      promote a follower to leader (fenced failover)
//	GET    /collections/{name}/wal       replication stream (raw journal frames)
//	GET    /collections/{name}/repl/manifest  committed generation, for bootstrap
//	GET    /collections/{name}/repl/file      snapshot file transfer, for bootstrap
//
// On a follower (Store.SetReplica) the write endpoints — build, delete,
// insert, snapshot — answer 307 Temporary Redirect to the leader instead of
// mutating replicated state.
//
// Every response carries an X-Request-Id (echoed from the request when the
// client sent one); the whole mux is wrapped in the observability middleware
// (per-endpoint metrics, slow-query log — see middleware.go).
func Handler(s *Store) http.Handler { return newHandler(s, maxBodyBytes) }

// newHandler is Handler with the body bound a parameter, for tests.
func newHandler(s *Store, maxBody int64) http.Handler {
	h := &api{store: s, maxBody: maxBody}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.health)
	mux.HandleFunc("GET /readyz", h.ready)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.HandleFunc("GET /collections", h.list)
	mux.HandleFunc("PUT /collections/{name}", h.build)
	mux.HandleFunc("DELETE /collections/{name}", h.delete)
	mux.HandleFunc("GET /collections/{name}/stats", h.stats)
	mux.HandleFunc("POST /collections/{name}/records", h.insert)
	mux.HandleFunc("POST /collections/{name}/search", h.search)
	mux.HandleFunc("POST /collections/{name}/topk", h.topk)
	mux.HandleFunc("POST /collections/{name}/search:batch", h.searchBatch)
	mux.HandleFunc("POST /collections/{name}/topk:batch", h.topkBatch)
	mux.HandleFunc("POST /collections/{name}/snapshot", h.snapshot)
	mux.HandleFunc("POST /promote", h.promote)
	mux.HandleFunc("GET /collections/{name}/wal", h.walStream)
	mux.HandleFunc("GET /collections/{name}/repl/manifest", h.replManifest)
	mux.HandleFunc("GET /collections/{name}/repl/file", h.replFile)
	return withObservability(s, mux)
}

type api struct {
	store   *Store
	maxBody int64
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeBodyError answers a request whose body could not be read: 413 when it
// ran into the size bound, 400 for everything else.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
}

// shed answers a request refused under overload: 503 + Retry-After, booked
// on the shed-load counter under the given reason.
func (h *api) shed(w http.ResponseWriter, reason, format string, args ...any) {
	h.store.metrics.shedLoad.With(reason).Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, format, args...)
}

// deadlinePassed sheds the request when its -request-timeout deadline (set
// by the middleware) already passed — work the client gave up on is dropped
// at the door instead of executed into the void.
func (h *api) deadlinePassed(w http.ResponseWriter, r *http.Request) bool {
	if r.Context().Err() == nil {
		return false
	}
	h.shed(w, "deadline", "request deadline exceeded before the request was served")
	return true
}

// fenceWrite answers write requests on a read replica: 307 Temporary
// Redirect to the same URI on the leader (307 keeps the method and body, so
// a client that follows it retries the write verbatim — request-id dedup
// included). Reports whether the request was fenced.
func (h *api) fenceWrite(w http.ResponseWriter, r *http.Request) bool {
	rep := h.store.role()
	if rep == nil {
		return false
	}
	leader := rep.Leader()
	w.Header().Set("Location", leader+r.URL.RequestURI())
	writeJSON(w, http.StatusTemporaryRedirect, map[string]any{
		"error":  "this node is a read-only replica; writes go to the leader",
		"leader": leader,
	})
	return true
}

// collection resolves the {name} path value, writing a 404 on miss.
func (h *api) collection(w http.ResponseWriter, r *http.Request) (*Collection, bool) {
	name := r.PathValue("name")
	c, err := h.store.Get(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "no collection %q", name)
		return nil, false
	}
	return c, true
}

// health reports liveness plus storage health: always 200 (the process is
// up and serving reads even with a degraded disk — that's what the
// degradation machinery is for), with "status" dropping from "ok" to
// "degraded" and a per-collection storage map when any collection is
// read-only or holds a quarantined generation. Routability is /readyz's
// job, not this endpoint's.
func (h *api) health(w http.ResponseWriter, r *http.Request) {
	names := h.store.Names()
	status := "ok"
	storage := make(map[string]string)
	for _, name := range names {
		c, err := h.store.Get(name)
		if err != nil {
			continue
		}
		st := c.storageStatus()
		if st != "ok" {
			status = "degraded"
			storage[name] = st
		}
	}
	resp := map[string]any{
		"status":      status,
		"collections": len(names),
	}
	if len(storage) > 0 {
		resp["storage"] = storage
	}
	writeJSON(w, http.StatusOK, resp)
}

// ready distinguishes "process up" (healthz) from "able to serve" — a load
// balancer should not route to an instance still replaying journals.
func (h *api) ready(w http.ResponseWriter, r *http.Request) {
	if !h.store.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "loading"})
		return
	}
	if rep := h.store.role(); rep != nil {
		if ok, reason := rep.Ready(); !ok {
			// A follower is not ready until bootstrap finished, its streams are
			// healthy and replica lag is under its bound — a load balancer must
			// not route to a cold or cut-off replica.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "replicating",
				"reason": reason,
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ready",
		"collections": len(h.store.Names()),
	})
}

func (h *api) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"collections": h.store.Names()})
}

type buildOptions struct {
	// Engine names the sketch: gbkmvd serves GB-KMV only, so it is "" or
	// gbkmv.DefaultEngine. The baseline engines are built in memory through
	// gbkmv.NewEngine, never here.
	Engine string `json:"engine"`
	// BudgetFraction is the sketch budget as a fraction of the data size
	// (default 0.10).
	BudgetFraction float64 `json:"budget_fraction"`
	// BudgetUnits is the absolute budget in signature units, overriding
	// BudgetFraction when positive — the right knob for collections that
	// grow by dynamic inserts.
	BudgetUnits int `json:"budget_units"`
	// BufferBits follows the library sentinels: 0 selects the buffer size
	// with the cost model, -1 disables the buffer, positive values are bits.
	BufferBits int    `json:"buffer_bits"`
	Seed       uint64 `json:"seed"`
}

// engineRefusal says why a build's options.engine is refused, or returns ""
// for the one engine gbkmvd serves.
func engineRefusal(name string) string {
	switch name {
	case "", gbkmv.DefaultEngine:
		return ""
	case "gkmv":
		return `engine "gkmv" is GB-KMV without the buffer: build with "buffer_bits": -1`
	}
	return fmt.Sprintf("engine %q is not served: gbkmvd builds %q only", name, gbkmv.DefaultEngine)
}

func (h *api) build(w http.ResponseWriter, r *http.Request) {
	if h.fenceWrite(w, r) {
		return
	}
	if h.deadlinePassed(w, r) {
		return
	}
	name := r.PathValue("name")
	if !ValidName(name) {
		writeError(w, http.StatusBadRequest, "invalid collection name %q", name)
		return
	}
	// Replacing a read-only collection would write a fresh snapshot onto the
	// unhealthy disk; shed like any other write until the probe clears it.
	if c, err := h.store.Get(name); err == nil {
		if ro, reason := c.ReadOnlyState(); ro {
			h.shed(w, "storage_readonly", "collection %q is read-only (%s); retry later", name, reason)
			return
		}
	}
	start := time.Now()
	sc := getScanner(http.MaxBytesReader(w, r.Body, h.maxBody))
	req, err := sc.readBuild()
	putScanner(sc)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if why := engineRefusal(req.Options.Engine); why != "" {
		writeError(w, http.StatusBadRequest, "%s", why)
		return
	}
	voc, corpus := req.voc, req.corpus
	if (corpus.Len() == 0) == (req.File == "") {
		writeError(w, http.StatusBadRequest, "provide exactly one of records or file")
		return
	}
	if req.File != "" {
		path, err := h.store.ResolveRecordFile(req.File)
		if err != nil {
			writeError(w, http.StatusBadRequest, "record file: %v", err)
			return
		}
		f, err := os.Open(path)
		if err != nil {
			writeError(w, http.StatusBadRequest, "opening record file: %v", err)
			return
		}
		defer f.Close()
		rb := gbkmv.NewRecordBuilder(voc)
		read := rb.ReadLines(f, nil)
		corpus, err = rb.Corpus()
		if err = cmp.Or(read, err); err != nil {
			writeError(w, http.StatusBadRequest, "reading record file: %v", err)
			return
		}
	} else if req.firstEmpty >= 0 {
		writeError(w, http.StatusBadRequest, "record %d is empty", req.firstEmpty)
		return
	}
	if corpus.Len() == 0 {
		writeError(w, http.StatusBadRequest, "no records")
		return
	}
	decoded := time.Now()
	opts := gbkmv.EngineOptions{
		BudgetFraction: req.Options.BudgetFraction,
		BudgetUnits:    req.Options.BudgetUnits,
		BufferBits:     req.Options.BufferBits,
		Seed:           req.Options.Seed,
	}
	eng, err := gbkmv.NewEngineFromCorpus(corpus, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "building %q: %v", name, err)
		return
	}
	sketched := time.Now()
	c, err := h.store.Create(name, voc, eng)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrBadName) {
			status = http.StatusBadRequest
		}
		writeError(w, status, "creating %q: %v", name, err)
		return
	}
	decode, sketch, snapshot := decoded.Sub(start), sketched.Sub(decoded), time.Since(sketched)
	stages := h.store.metrics.buildStage
	stages.With("decode").Observe(decode.Seconds())
	stages.With("sketch").Observe(sketch.Seconds())
	stages.With("snapshot").Observe(snapshot.Seconds())
	h.store.logf("gbkmvd: built collection %q: engine %s, %d records (decode %s, sketch %s, snapshot %s)",
		name, eng.EngineName(), eng.Len(), decode.Round(time.Millisecond), sketch.Round(time.Millisecond),
		snapshot.Round(time.Millisecond))
	writeJSON(w, http.StatusOK, c.Stats())
}

func (h *api) delete(w http.ResponseWriter, r *http.Request) {
	if h.fenceWrite(w, r) {
		return
	}
	name := r.PathValue("name")
	switch err := h.store.Delete(name); {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "no collection %q", name)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "deleting %q: %v", name, err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
	}
}

func (h *api) stats(w http.ResponseWriter, r *http.Request) {
	c, ok := h.collection(w, r)
	if !ok {
		return
	}
	st := c.Stats()
	if rep := h.store.role(); rep != nil {
		st.Role = "follower"
		st.Replication = rep.ReplStats(c.name)
	} else {
		st.Role = "leader"
	}
	st.Storage = h.store.storageHealth(c)
	writeJSON(w, http.StatusOK, st)
}

// promote turns a follower into the leader: POST /promote runs the
// replication layer's promotion sequence (stop tailing, roll every
// collection's generation, drop write fencing — see repl.Follower.Promote).
// 409 on a node that is already the leader; idempotent in effect, since a
// second call lands in that 409.
func (h *api) promote(w http.ResponseWriter, r *http.Request) {
	rep := h.store.role()
	if rep == nil {
		writeError(w, http.StatusConflict, "this node is already the leader")
		return
	}
	if err := rep.Promote(); err != nil {
		writeError(w, http.StatusInternalServerError, "promoting: %v", err)
		return
	}
	gens := make(map[string]uint64)
	for _, name := range h.store.Names() {
		if c, err := h.store.Get(name); err == nil {
			gen, _, _ := c.ReplPosition()
			gens[name] = gen
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "generations": gens})
}

func (h *api) insert(w http.ResponseWriter, r *http.Request) {
	if h.fenceWrite(w, r) {
		return
	}
	if h.deadlinePassed(w, r) {
		return
	}
	// The in-flight gate bounds inserts *before* the body is decoded and the
	// batch joins the commit queue: under overload the cheap answer is an
	// immediate 503 the client retries later, not another queued fsync.
	release, ok := h.store.acquireInsertSlot()
	if !ok {
		h.shed(w, "inflight_inserts", "too many in-flight inserts; retry later")
		return
	}
	if release != nil {
		defer release()
	}
	c, ok := h.collection(w, r)
	if !ok {
		return
	}
	// Storage-degraded read-only mode: reads keep serving, writes shed with
	// a retryable 503 until the background probe sees the disk heal.
	if ro, reason := c.ReadOnlyState(); ro {
		h.shed(w, "storage_readonly", "collection %q is read-only (%s); retry later", c.name, reason)
		return
	}
	// The body is {"records": [[token, ...], ...], "request_id": "..."}.
	// request_id optionally tags the batch for duplicate detection: a retry
	// carrying the same id — e.g. after a crash ate the acknowledgement of
	// a journaled insert — is rejected with 409 Conflict and the originally
	// assigned record ids, instead of silently duplicating the records.
	// The scanner is kept until insert returns: its group's leader interns the
	// records from it, on whichever request's goroutine that runs.
	sc := getScanner(http.MaxBytesReader(w, r.Body, h.maxBody))
	defer putScanner(sc)
	requestID, err := sc.readInsert()
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if len(sc.recEnds) == 0 {
		writeError(w, http.StatusBadRequest, "no records")
		return
	}
	ids, err := c.insert(sc, requestID)
	if err != nil {
		if errors.Is(err, ErrDuplicateRequest) {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":     fmt.Sprintf("request %q was already applied", requestID),
				"duplicate": true,
				"ids":       ids,
			})
			return
		}
		status := http.StatusBadRequest
		if errors.Is(err, ErrStorage) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, "inserting: %v", err)
		return
	}
	sc.frames = appendIDsResponse(sc.frames[:0], ids)
	writeRaw(w, http.StatusOK, sc.frames)
}

// query is the shared front of search, topk and their batch forms: it
// resolves the collection, scans and validates the body and opens the
// request trace. When ok, the caller puts the scanner back once it is done
// with the request's queries, which alias the scanner's buffers.
func (h *api) query(w http.ResponseWriter, r *http.Request, batch, topk bool) (c *Collection, sc *bodyScanner, req queryBody, ok bool) {
	if h.deadlinePassed(w, r) {
		return nil, nil, req, false
	}
	if c, ok = h.collection(w, r); !ok {
		return nil, nil, req, false
	}
	sc = getScanner(http.MaxBytesReader(w, r.Body, h.maxBody))
	req, err := sc.readQuery(batch, topk)
	if err != nil {
		writeBodyError(w, err)
	} else if err = req.invalid(batch); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
	} else {
		if tr := traceOf(w); tr != nil {
			tr.isQuery = true
			if batch {
				tr.queries = len(req.queries)
			}
		}
		return c, sc, req, true
	}
	putScanner(sc)
	return nil, nil, req, false
}

func (h *api) search(w http.ResponseWriter, r *http.Request) { h.answer(w, r, false) }
func (h *api) topk(w http.ResponseWriter, r *http.Request)   { h.answer(w, r, true) }

// answer serves search ({"query": [token, ...], "threshold": t, "limit": n,
// "with_tokens": bool}; limit caps the hits returned, 0 means all, and the
// total qualifying count is always reported) and topk ({"query": [...], "k":
// k, "with_tokens": bool}).
func (h *api) answer(w http.ResponseWriter, r *http.Request, topk bool) {
	c, sc, req, ok := h.query(w, r, false, topk)
	if !ok {
		return
	}
	defer putScanner(sc)
	rs := getResp()
	defer putResp(rs)
	hits, total, err := c.answer(rs, req.query, req.querySpec, rs.hits[:0], traceOf(w))
	if err != nil {
		what := "search"
		if topk {
			what = "topk"
		}
		writeError(w, http.StatusBadRequest, "%s: %v", what, err)
		return
	}
	rs.hits = hits
	if topk {
		rs.b = appendTopKResponse(rs.b[:0], hits)
	} else {
		rs.b = appendSearchResponse(rs.b[:0], total, hits)
	}
	writeRaw(w, http.StatusOK, rs.b)
}

func (h *api) searchBatch(w http.ResponseWriter, r *http.Request) { h.answerBatch(w, r, false) }
func (h *api) topkBatch(w http.ResponseWriter, r *http.Request)   { h.answerBatch(w, r, true) }

// answerBatch answers many threshold searches, or top-k queries, in one
// request ("queries" in place of "query"): each distinct query is prepared
// once, the batch fans out across a bounded worker pool, and lock acquisition
// plus response encoding are amortized over the batch. Per-query failures
// (e.g. an empty query) fail only their result slot.
func (h *api) answerBatch(w http.ResponseWriter, r *http.Request, topk bool) {
	c, sc, req, ok := h.query(w, r, true, topk)
	if !ok {
		return
	}
	defer putScanner(sc)
	results := c.batch(r.Context(), req.queries, req.querySpec)
	rs := getResp()
	defer putResp(rs)
	rs.b = appendBatchResponse(rs.b[:0], results, !topk)
	writeRaw(w, http.StatusOK, rs.b)
}

func (h *api) snapshot(w http.ResponseWriter, r *http.Request) {
	if h.fenceWrite(w, r) {
		return
	}
	name := r.PathValue("name")
	if c, err := h.store.Get(name); err == nil {
		if ro, reason := c.ReadOnlyState(); ro {
			h.shed(w, "storage_readonly", "collection %q is read-only (%s); retry later", name, reason)
			return
		}
	}
	c, err := h.store.Snapshot(name)
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "no collection %q", name)
	case errors.Is(err, ErrNoPersistence):
		writeError(w, http.StatusConflict, "store has no data directory")
	case err != nil:
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
	default:
		writeJSON(w, http.StatusOK, c.Stats())
	}
}
