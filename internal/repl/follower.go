// Package repl drives a gbkmvd read replica: it discovers the leader's
// collections, bootstraps each one from the leader's committed snapshot
// generation, then tails the leader's journal over HTTP and applies the
// streamed commit groups through the server's replicated-apply path.
//
// The division of labor: package server owns every invariant (what a wal
// chunk must look like, where bootstrap files go, how frames become engine
// state); this package owns the protocol driving — polling, long-poll
// tailing, generation handoff, reconnect backoff, re-bootstrap on
// divergence — and the replication metrics. A follower holds no state the
// store doesn't: its resume point after a restart is simply its own
// journal's end, recovered by the ordinary startup replay.
package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gbkmv/internal/obs"
	"gbkmv/internal/server"
)

// Options configures a Follower.
type Options struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:7600").
	Leader string
	// Store is the local store replicated state is applied into. It must be
	// persistent (have a data directory), and at most one Follower may drive
	// a given store (the replication metric families register once).
	Store *server.Store
	// PollInterval is the cadence of collection-listing polls against the
	// leader (discovering new and deleted collections). Default 3s.
	PollInterval time.Duration
	// Wait is the long-poll duration sent with each caught-up wal request.
	// Default 10s.
	Wait time.Duration
	// ReadyLagBytes is the /readyz gate: the follower reports ready only
	// once every collection is bootstrapped and lags by at most this many
	// journal bytes. Default 1 MiB.
	ReadyLagBytes int64
	// Logf receives progress and error lines; defaults to log.Printf.
	Logf func(format string, args ...any)
	// Client is the HTTP client used against the leader; defaults to a
	// dedicated client (requests carry per-call timeouts derived from Wait).
	Client *http.Client
}

// Follower replicates a leader's collections into a local store. Create
// with New, start with Start, stop with Close.
type Follower struct {
	opt    Options
	store  *server.Store
	client *http.Client
	logf   func(format string, args ...any)

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	replicas map[string]*replica
	listed   bool // first successful collection listing completed

	// depth is this node's distance from the true leader: provisionally 1,
	// then the upstream's advertised depth plus one, and 0 once promoted.
	depth atomic.Int64

	// Promotion state (see promote.go).
	promoting atomic.Bool
	promoted  atomic.Bool
	closing   atomic.Bool

	mLagBytes   *obs.GaugeVec
	mLagEntries *obs.GaugeVec
	mLagSecs    *obs.GaugeVec
	mReconnects *obs.CounterVec
	mApplied    *obs.CounterVec
	mAppliedB   *obs.CounterVec
	mBootstrap  *obs.Histogram
	mPromotions *obs.Counter
	mPromoSecs  *obs.Histogram
	mChainDepth *obs.Gauge
}

// replica is one collection's replication state machine.
type replica struct {
	f    *Follower
	name string
	stop context.CancelFunc

	// bo is the full-jitter reconnect backoff; touched only by the run
	// goroutine. The surfaced failure count and current delay live under mu
	// for the /stats reader.
	bo backoff

	mu             sync.Mutex
	coll           *server.Collection // nil until first install
	bootstrapped   bool
	bootstrapSecs  float64
	leaderSynced   int64     // leader's durable frontier, from the last response headers
	leaderGen      uint64    // generation that frontier belongs to
	leaderEntries  int       // leader's applied entry count in its current journal
	behindSince    time.Time // zero while caught up
	lastHealthy    time.Time // the last healthy exchange (the listing that found the collection, at first)
	reconnects     int64
	consecFailures int64         // erroring sessions since the last healthy exchange
	curBackoff     time.Duration // delay of the current/most recent reconnect sleep
}

// New wires a follower to its store — it becomes the store's replica role
// (write fencing, the /readyz gate, the /stats annotation, POST /promote) —
// and registers the replication metric families. Call Start to begin
// replicating.
func New(opt Options) (*Follower, error) {
	if opt.Leader == "" {
		return nil, errors.New("repl: leader URL required")
	}
	if opt.Store == nil {
		return nil, errors.New("repl: store required")
	}
	if _, err := url.Parse(opt.Leader); err != nil {
		return nil, fmt.Errorf("repl: leader URL: %v", err)
	}
	if opt.PollInterval <= 0 {
		opt.PollInterval = 3 * time.Second
	}
	if opt.Wait <= 0 {
		opt.Wait = 10 * time.Second
	}
	if opt.ReadyLagBytes <= 0 {
		opt.ReadyLagBytes = 1 << 20
	}
	f := &Follower{
		opt:      opt,
		store:    opt.Store,
		client:   opt.Client,
		logf:     opt.Logf,
		replicas: make(map[string]*replica),
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	if f.logf == nil {
		f.logf = log.Printf
	}
	reg := f.store.Registry()
	f.mLagBytes = reg.GaugeVec("gbkmv_repl_lag_bytes",
		"Replica lag in journal bytes behind the leader's durable frontier; -1 (unknown) while its stream fails.", "collection")
	f.mLagEntries = reg.GaugeVec("gbkmv_repl_lag_entries",
		"Replica lag in applied journal entries behind the leader; -1 (unknown) while its stream fails.", "collection")
	f.mLagSecs = reg.GaugeVec("gbkmv_repl_lag_seconds",
		"Seconds since the replica was last caught up, or since its last healthy exchange while its stream fails (0 while caught up).", "collection")
	f.mReconnects = reg.CounterVec("gbkmv_repl_stream_reconnects_total",
		"Replication stream sessions that ended in an error and reconnected.", "collection")
	f.mApplied = reg.CounterVec("gbkmv_repl_applied_entries_total",
		"Journal entries applied from the replication stream.", "collection")
	f.mAppliedB = reg.CounterVec("gbkmv_repl_applied_bytes_total",
		"Journal bytes applied from the replication stream.", "collection")
	f.mBootstrap = reg.Histogram("gbkmv_repl_bootstrap_duration_seconds",
		"Duration of collection bootstraps (snapshot transfer + load).",
		[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60})
	f.mPromotions = reg.Counter("gbkmv_repl_promotions_total",
		"Times this follower was promoted to leader (POST /promote).")
	f.mPromoSecs = reg.Histogram("gbkmv_repl_promotion_seconds",
		"Duration of follower-to-leader promotions (quiesce + generation rolls).",
		[]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30})
	f.mChainDepth = reg.Gauge("gbkmv_repl_chain_depth",
		"This node's distance from the true leader (0 after promotion, 1 following the leader, 2 chained, ...).")
	reg.OnScrape(f.refreshLagGauges)
	f.depth.Store(1) // provisional; refined from upstream headers
	f.store.SetReplica(f)
	return f, nil
}

// Start launches the replication loops. They run until ctx is cancelled or
// Close is called.
func (f *Follower) Start(ctx context.Context) {
	ctx, f.cancel = context.WithCancel(ctx)
	f.wg.Add(1)
	go f.manage(ctx)
}

// Close stops every replication loop and waits for them to finish. Unless
// the follower was promoted, the store keeps its replica role (write
// fencing, readyz gate) — a stopped follower must not silently start taking
// writes.
func (f *Follower) Close() {
	f.closing.Store(true)
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
}

// Leader is the upstream's base URL, where the store redirects writes.
func (f *Follower) Leader() string { return f.opt.Leader }

// ChainDepth is this node's distance from the true leader.
func (f *Follower) ChainDepth() int64 { return f.depth.Load() }

// replicaList copies the replica set under the lock.
func (f *Follower) replicaList() []*replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	replicas := make([]*replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		replicas = append(replicas, r)
	}
	return replicas
}

// manage polls the leader's collection listing, starting a replica loop for
// every new collection and retiring (and locally deleting) ones the leader
// dropped.
func (f *Follower) manage(ctx context.Context) {
	defer f.wg.Done()
	t := time.NewTicker(f.opt.PollInterval)
	defer t.Stop()
	for {
		names, err := f.listLeader(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.logf("repl: listing leader collections: %v", err)
		} else {
			f.reconcile(ctx, names)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (f *Follower) listLeader(ctx context.Context) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opt.Leader+"/collections", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("leader answered %s", resp.Status)
	}
	var body struct {
		Collections []string `json:"collections"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return nil, err
	}
	return body.Collections, nil
}

func (f *Follower) reconcile(ctx context.Context, names []string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	f.mu.Lock()
	f.listed = true
	var stale []*replica
	for name, r := range f.replicas {
		if !want[name] {
			stale = append(stale, r)
			delete(f.replicas, name)
		}
	}
	var fresh []*replica
	for _, name := range names {
		if _, ok := f.replicas[name]; ok {
			continue
		}
		r := &replica{f: f, name: name, lastHealthy: time.Now()}
		f.replicas[name] = r
		fresh = append(fresh, r)
	}
	f.mu.Unlock()
	for _, r := range stale {
		r.stop()
		f.mLagBytes.Remove(r.name)
		f.mLagEntries.Remove(r.name)
		f.mLagSecs.Remove(r.name)
		if err := f.store.Delete(r.name); err != nil && !errors.Is(err, server.ErrNotFound) {
			f.logf("repl: deleting dropped collection %q: %v", r.name, err)
		}
	}
	for _, r := range fresh {
		rctx, cancel := context.WithCancel(ctx)
		r.stop = cancel
		f.wg.Add(1)
		go func(r *replica) {
			defer f.wg.Done()
			r.run(rctx)
		}(r)
	}
}

// run is one collection's replication loop: sync until an error, then back
// off and reconnect, forever. Every erroring session counts as a reconnect.
// The backoff is full-jitter capped exponential (see backoff.go) so a fleet
// of replicas doesn't stampede a just-restarted leader in lockstep; any
// healthy exchange resets it (noteHealthy).
func (r *replica) run(ctx context.Context) {
	r.bo = backoff{base: 250 * time.Millisecond, cap: 15 * time.Second}
	for ctx.Err() == nil {
		err := r.sync(ctx)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			return // collection gone on the leader; manager reconciles
		}
		d := r.bo.next()
		r.mu.Lock()
		r.reconnects++
		r.consecFailures++
		r.curBackoff = d
		r.mu.Unlock()
		r.f.mReconnects.With(r.name).Inc()
		r.f.logf("repl: %s: stream error (reconnecting in %v): %v", r.name, d.Round(time.Millisecond), err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
	}
}

// noteHealthy resets the reconnect schedule after a successful exchange.
func (r *replica) noteHealthy() {
	r.bo.reset()
	r.mu.Lock()
	r.consecFailures, r.curBackoff = 0, 0
	r.lastHealthy = time.Now()
	r.mu.Unlock()
}

// errStale marks a stream position the leader no longer serves (410): the
// replica's local state diverged (it missed a generation, or the leader was
// rebuilt) and only a fresh bootstrap reconciles it.
var errStale = errors.New("stale stream position")

// sync is one replication session: make the collection exist locally
// (resume from local state when possible, bootstrap otherwise), then tail
// the wal stream until something breaks. Returns nil only when the
// collection vanished from the leader.
func (r *replica) sync(ctx context.Context) error {
	c, err := r.f.store.Get(r.name)
	if errors.Is(err, server.ErrNotFound) {
		if c, err = r.bootstrap(ctx); err != nil {
			return err
		}
	} else if err != nil {
		return err
	} else {
		// Local state exists — a follower restart. The startup replay already
		// applied the local journal; resume the stream from its end.
		r.mu.Lock()
		r.coll, r.bootstrapped = c, true
		r.mu.Unlock()
	}
	for {
		progressed, err := r.tailOnce(ctx, c)
		switch {
		case errors.Is(err, errStale), errors.Is(err, server.ErrReplDiverged):
			r.f.logf("repl: %s: %v; re-bootstrapping", r.name, err)
			if c, err = r.bootstrap(ctx); err != nil {
				return err
			}
			continue
		case errors.Is(err, errGoneFromLeader):
			return nil
		case err != nil:
			return err
		}
		r.noteHealthy()
		_ = progressed // a caught-up poll long-polled on the leader; loop immediately
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// errGoneFromLeader marks a 404: the collection no longer exists there.
var errGoneFromLeader = errors.New("collection gone from leader")

// tailOnce issues one wal request from the replica's current position and
// applies whatever comes back: a chunk of frames, a generation handoff, or
// an empty caught-up response (which still refreshes the lag headers).
func (r *replica) tailOnce(ctx context.Context, c *server.Collection) (bool, error) {
	gen, from, _ := c.ReplPosition()
	u := fmt.Sprintf("%s/collections/%s/wal?gen=%d&from=%d&wait=%s",
		r.f.opt.Leader, url.PathEscape(r.name), gen, from, r.f.opt.Wait)
	rctx, cancel := context.WithTimeout(ctx, r.f.opt.Wait+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := r.f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return false, errGoneFromLeader
	case http.StatusGone:
		return false, fmt.Errorf("%w: leader answered %s", errStale, resp.Status)
	default:
		return false, fmt.Errorf("leader answered %s", resp.Status)
	}
	hdr, err := parseWALHeaders(resp.Header)
	if err != nil {
		return false, err
	}
	if hdr.depth >= 0 {
		// The upstream's distance from the true leader; ours is one more.
		// This is how depth propagates down chained topologies.
		r.f.depth.Store(hdr.depth + 1)
	}
	frames, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return false, err
	}
	// Frames from another offset than asked for are dropped before they touch
	// the local journal, and the request retried.
	if err := hdr.checkChunk(from, len(frames)); err != nil {
		return false, err
	}
	if hdr.next != 0 {
		// The generation we tailed is complete; roll our own snapshot to join
		// the leader's new generation at offset 0.
		if err := r.f.store.RollGeneration(r.name, hdr.next); err != nil {
			return false, err
		}
		r.f.logf("repl: %s: rolled to generation %d after leader snapshot", r.name, hdr.next)
		return true, nil
	}
	r.noteLeader(hdr.gen, hdr.synced, hdr.entries)
	if len(frames) == 0 {
		r.refreshCaughtUp(c)
		return false, nil
	}
	_, applied, err := c.ApplyReplicated(gen, from, frames)
	if err != nil {
		return false, err
	}
	r.f.mApplied.With(r.name).Add(uint64(applied))
	r.f.mAppliedB.With(r.name).Add(uint64(len(frames)))
	r.refreshCaughtUp(c)
	return true, nil
}

// noteLeader records the leader's position from a response's headers.
func (r *replica) noteLeader(gen uint64, synced int64, entries int) {
	r.mu.Lock()
	r.leaderGen, r.leaderSynced, r.leaderEntries = gen, synced, entries
	r.mu.Unlock()
}

// refreshCaughtUp recomputes the behind/caught-up clock against the local
// position — the source of the lag-in-seconds metric.
func (r *replica) refreshCaughtUp(c *server.Collection) {
	gen, applied, _ := c.ReplPosition()
	r.mu.Lock()
	behind := r.leaderGen != gen || applied < r.leaderSynced
	if !behind {
		r.behindSince = time.Time{}
	} else if r.behindSince.IsZero() {
		r.behindSince = time.Now()
	}
	r.mu.Unlock()
}

// bootstrap transfers the leader's committed snapshot generation and
// installs it: manifest, index + vocabulary files, then meta.json last (tmp
// + rename + directory sync — the commit point, same as a local snapshot). The journal tail
// is NOT transferred: the collection installs with an empty journal and the
// tail arrives through the ordinary wal stream from offset 0. Any prior
// local state is deleted first — bootstrap exists precisely because that
// state cannot be reconciled.
func (r *replica) bootstrap(ctx context.Context) (*server.Collection, error) {
	start := time.Now()
	if err := r.f.store.Delete(r.name); err != nil && !errors.Is(err, server.ErrNotFound) {
		return nil, err
	}
	r.mu.Lock()
	r.coll, r.bootstrapped = nil, false
	r.mu.Unlock()
	var man server.ReplManifest
	if err := r.fetchJSON(ctx, fmt.Sprintf("%s/collections/%s/repl/manifest", r.f.opt.Leader, url.PathEscape(r.name)), &man); err != nil {
		return nil, err
	}
	dir, err := r.f.store.CollectionDir(r.name)
	if err != nil {
		return nil, err
	}
	if err := r.f.store.FS().MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	indexP, vocabP, metaP := server.ReplicaSnapshotPaths(dir, man.Generation)
	fileURL := func(kind string) string {
		return fmt.Sprintf("%s/collections/%s/repl/file?gen=%d&kind=%s",
			r.f.opt.Leader, url.PathEscape(r.name), man.Generation, kind)
	}
	if err := r.fetchFile(ctx, fileURL("index"), indexP); err != nil {
		return nil, err
	}
	if err := r.fetchFile(ctx, fileURL("vocab"), vocabP); err != nil {
		return nil, err
	}
	if err := r.fetchFile(ctx, fileURL("meta"), metaP+".tmp"); err != nil {
		return nil, err
	}
	// The transferred meta must commit the generation the files belong to; a
	// leader snapshot racing the transfer shows up here as a mismatch.
	fsys := r.f.store.FS()
	mb, err := fsys.ReadFile(metaP + ".tmp")
	if err != nil {
		return nil, err
	}
	var m struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("transferred meta: %v", err)
	}
	if m.Generation != man.Generation {
		return nil, fmt.Errorf("%w: transferred meta commits generation %d, wanted %d", errStale, m.Generation, man.Generation)
	}
	// Transfer-time verification point: re-read the transferred files from
	// local disk and check them against the commit record *before* the
	// rename makes the generation loadable. Catches what the per-file header
	// check cannot — corruption introduced by our own disk on the way down.
	if err := server.VerifySnapshotFiles(fsys, dir, man.Generation, mb); err != nil {
		r.f.store.NoteTransferVerifyFailure(r.name)
		r.f.logf("repl: %s: transferred snapshot failed verification: %v; retrying bootstrap", r.name, err)
		return nil, fmt.Errorf("transferred snapshot verification: %w", err)
	}
	if err := fsys.Rename(metaP+".tmp", metaP); err != nil {
		return nil, err
	}
	// The rename commits the generation only once the directory is synced:
	// as on the leader (generations.go), before anything — the install's
	// sweep included — removes a file.
	if err := fsys.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("syncing %s: %w", dir, err)
	}
	c, err := r.f.store.InstallReplica(r.name)
	if err != nil {
		return nil, err
	}
	secs := time.Since(start).Seconds()
	r.mu.Lock()
	r.coll, r.bootstrapped, r.bootstrapSecs = c, true, secs
	r.mu.Unlock()
	r.f.mBootstrap.Observe(secs)
	r.f.logf("repl: %s: bootstrapped generation %d (%d records) from %s in %.2fs",
		r.name, man.Generation, man.Records, r.f.opt.Leader, secs)
	return c, nil
}

func (r *replica) fetchJSON(ctx context.Context, u string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return errGoneFromLeader
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v)
}

func (r *replica) fetchFile(ctx context.Context, u, path string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return errGoneFromLeader
	case http.StatusGone:
		return fmt.Errorf("%w: GET %s: %s", errStale, u, resp.Status)
	default:
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	f, err := r.f.store.FS().OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Checksum the bytes as received: snapshot responses carry the commit
	// record's size and CRC64, so a truncated or corrupted transfer (a
	// dropped connection, a mangling proxy) fails here and is retried —
	// before anything downstream trusts the file.
	crc := crc64.New(crc64.MakeTable(crc64.ECMA))
	n, err := io.Copy(io.MultiWriter(f, crc), resp.Body)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if ws := resp.Header.Get("X-Gbkmv-File-Size"); ws != "" {
		want, perr := strconv.ParseInt(ws, 10, 64)
		if perr == nil && want != n {
			return fmt.Errorf("GET %s: transferred %d bytes, commit record says %d", u, n, want)
		}
		if wc := resp.Header.Get("X-Gbkmv-File-Crc64"); wc != "" {
			if got := fmt.Sprintf("%016x", crc.Sum64()); got != wc {
				return fmt.Errorf("GET %s: transferred crc64 %s, commit record says %s", u, got, wc)
			}
		}
	}
	return nil
}

// stats computes the replica's current ReplStats against the live local
// position.
func (r *replica) stats() *server.ReplStats {
	r.mu.Lock()
	st := &server.ReplStats{
		Leader:              r.f.opt.Leader,
		Bootstrapped:        r.bootstrapped,
		BootstrapSeconds:    r.bootstrapSecs,
		StreamReconnects:    r.reconnects,
		ConsecutiveFailures: r.consecFailures,
		ReconnectBackoff:    r.curBackoff.Seconds(),
		ChainDepth:          r.f.depth.Load(),
	}
	coll := r.coll
	leaderGen, leaderSynced, leaderEntries := r.leaderGen, r.leaderSynced, r.leaderEntries
	behindSince := r.behindSince
	// A failing stream knows nothing newer than its last healthy exchange:
	// lag headers that stopped arriving must not read as zero lag. It counts
	// as behind from there, by a number of bytes and entries it cannot know.
	failing := r.consecFailures > 0
	if failing && behindSince.IsZero() {
		behindSince = r.lastHealthy
	}
	r.mu.Unlock()
	if !behindSince.IsZero() {
		st.LagSeconds = time.Since(behindSince).Seconds()
	}
	if failing {
		st.LagBytes, st.LagEntries = -1, -1
	}
	if coll == nil {
		return st
	}
	gen, applied, entries := coll.ReplPosition()
	st.Generation = gen
	st.AppliedOffsetBytes = applied
	st.AppliedEntries = entries
	st.LeaderSyncedBytes = leaderSynced
	switch {
	case failing: // unknown, -1 above
	case leaderGen == gen:
		// Same byte stream on both sides: lag is an exact subtraction.
		if lag := leaderSynced - applied; lag > 0 {
			st.LagBytes = lag
		}
		if lag := leaderEntries - entries; lag > 0 {
			st.LagEntries = lag
		}
	default:
		// Mid-handoff (or diverged): byte offsets aren't comparable across
		// generations; report the entry counts' difference as the best signal.
		if lag := leaderEntries - entries; lag > 0 {
			st.LagEntries = lag
		}
	}
	return st
}

// ReplStats is one collection's replication state, the /stats annotation.
func (f *Follower) ReplStats(name string) *server.ReplStats {
	f.mu.Lock()
	r := f.replicas[name]
	f.mu.Unlock()
	if r == nil {
		return nil
	}
	return r.stats()
}

// Ready is the /readyz gate: ready once the first listing landed, every
// collection bootstrapped, no collection's stream failing and none lagging
// past the bound.
func (f *Follower) Ready() (bool, string) {
	f.mu.Lock()
	listed := f.listed
	f.mu.Unlock()
	if !listed {
		return false, "awaiting first collection listing from leader"
	}
	for _, r := range f.replicaList() {
		st := r.stats()
		if !st.Bootstrapped {
			return false, fmt.Sprintf("collection %q is bootstrapping", r.name)
		}
		if st.ConsecutiveFailures > 0 {
			return false, fmt.Sprintf("collection %q stream is failing (%d consecutive failures)", r.name, st.ConsecutiveFailures)
		}
		if st.LagBytes > f.opt.ReadyLagBytes {
			return false, fmt.Sprintf("collection %q lags %d bytes (bound %d)", r.name, st.LagBytes, f.opt.ReadyLagBytes)
		}
	}
	return true, ""
}

// refreshLagGauges recomputes the per-collection lag gauges; runs on every
// /metrics scrape so the exposition is current without a background ticker.
func (f *Follower) refreshLagGauges() {
	f.mChainDepth.Set(float64(f.depth.Load()))
	if f.promoted.Load() {
		return // a promoted node is the leader; lag is no longer meaningful
	}
	for _, r := range f.replicaList() {
		st := r.stats()
		f.mLagBytes.With(r.name).Set(float64(st.LagBytes))
		f.mLagEntries.With(r.name).Set(float64(st.LagEntries))
		f.mLagSecs.With(r.name).Set(st.LagSeconds)
	}
}
