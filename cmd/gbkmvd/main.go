// Command gbkmvd serves containment similarity search over multiple named
// sketch collections through an HTTP JSON API.
//
// Each collection is a GB-KMV index, the paper's sketch: a build's
// options.engine may only say "gbkmv", and the G-KMV sketch is
// "buffer_bits": -1. (The baseline engines of the paper's evaluation are
// built in memory by the library and the experiments, never served.)
// Collections are built from posted records or server-side files, searched
// concurrently, extended with journaled dynamic inserts, and snapshotted to
// the data directory — on demand, and on graceful shutdown. On startup every
// collection found in the data directory is reloaded from its latest
// snapshot with the insert journal replayed on top, so dynamic inserts
// survive restarts; a snapshot of another format, or of another engine, is
// skipped with a message to rebuild the collection.
//
// Usage:
//
//	gbkmvd -addr :7878 -data ./gbkmvd-data
//
// Quick start:
//
//	curl -X PUT localhost:7878/collections/demo \
//	  -d '{"records": [["five","guys","burgers"], ["five","kitchen"]], "options": {"budget_units": 1000}}'
//	curl localhost:7878/collections/demo/search -d '{"query": ["five","guys"], "threshold": 0.5}'
//
// Observability: GET /metrics serves Prometheus text exposition, GET /readyz
// reports readiness, -slow-query logs slow searches with their trace, and
// -debug-addr serves net/http/pprof on a separate operator-only listener.
//
// Replication: -follow <leader-url> runs the daemon as a read replica — it
// bootstraps every collection from the leader's snapshots, tails the
// leader's journal stream, serves the full read API, redirects writes to
// the leader (307), and holds /readyz at 503 until bootstrap completes,
// while a stream is failing, and until replica lag is under -repl-ready-lag
// bytes. It becomes the leader only on request (POST /promote):
//
//	gbkmvd -addr :7879 -data ./replica-data -follow http://leader:7878
//
// See the Handler documentation in internal/server (and README.md) for the
// full endpoint list.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	rtpprof "runtime/pprof"
	"strings"
	"syscall"
	"time"

	"gbkmv/internal/repl"
	"gbkmv/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":7878", "HTTP listen address")
		dataDir     = flag.String("data", "./gbkmvd-data", "data directory for snapshots and journals; empty disables persistence")
		recordFiles = flag.String("record-files", "", "directory server-side record files may be built from; empty disables file builds")
		queryCache  = flag.Int("query-cache", server.DefaultQueryCacheEntries, "answer cache entries per collection: a repeated query's total and scored hits, kept until an insert changes the collection; 0 disables caching")
		grace       = flag.Duration("grace", 10*time.Second, "graceful shutdown timeout")
		readTimeout = flag.Duration("read-timeout", 5*time.Minute, "HTTP read timeout (bulk builds can be large)")
		slowQuery   = flag.Duration("slow-query", 0, "log search requests taking at least this long, with their trace (0 disables)")
		scrubEvery  = flag.Duration("scrub-interval", 10*time.Minute, "background scrub interval: re-read and verify committed snapshot files on disk (0 disables scrubbing; the read-only recovery probe runs regardless)")
		debugAddr   = flag.String("debug-addr", "", "listen address for net/http/pprof profiling endpoints; empty disables them")

		headerTimeout  = flag.Duration("read-header-timeout", 10*time.Second, "HTTP read-header timeout (slowloris protection)")
		idleTimeout    = flag.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout")
		requestTimeout = flag.Duration("request-timeout", 0, "per-request handler deadline; expired requests shed with 503 (0 disables; replication streams are exempt)")
		writeTimeout   = flag.Duration("write-timeout", 0, "per-request response write deadline (0 disables; replication streams are exempt)")
		maxInserts     = flag.Int("max-inflight-inserts", 0, "bound on concurrent insert requests; excess sheds with 503 + Retry-After (0 = unbounded)")

		follow       = flag.String("follow", "", "run as a read replica of the leader at this base URL (e.g. http://leader:7878)")
		replPoll     = flag.Duration("repl-poll", 3*time.Second, "replica: leader collection-listing poll interval")
		replWait     = flag.Duration("repl-wait", 10*time.Second, "replica: long-poll duration per WAL stream request")
		replReadyLag = flag.Int64("repl-ready-lag", 1<<20, "replica: /readyz reports ready only under this many bytes of replica lag")
	)
	flag.Parse()

	if *follow != "" && *dataDir == "" {
		log.Fatalf("gbkmvd: -follow requires -data (replicated state must be durable to resume after a restart)")
	}

	cacheEntries := *queryCache
	if cacheEntries <= 0 {
		cacheEntries = -1 // the flag's 0 disables caching; the option's 0 means the default
	}
	store, err := server.OpenStore(*dataDir, server.StoreOptions{
		Logf:                 log.Printf,
		QueryCacheEntries:    cacheEntries,
		RecordFileRoot:       *recordFiles,
		SlowQueryThreshold:   *slowQuery,
		RequestTimeout:       *requestTimeout,
		ResponseWriteTimeout: *writeTimeout,
		MaxInflightInserts:   *maxInserts,
	})
	if err != nil {
		log.Fatalf("gbkmvd: opening store: %v", err)
	}
	if *dataDir != "" {
		// Background storage health: periodic scrub passes re-verify committed
		// snapshots against their checksums, and a short-interval probe moves
		// read-only collections back to writable once their disk heals.
		// Store.Close stops the loop.
		store.StartScrubber(*scrubEvery)
	}

	// Follower mode: New fences writes and gates /readyz immediately (before
	// the listener opens, so a load balancer never sees a ready cold
	// replica); Start begins bootstrapping and tailing the leader.
	var follower *repl.Follower
	if *follow != "" {
		f, err := repl.New(repl.Options{
			Leader:        strings.TrimRight(*follow, "/"),
			Store:         store,
			PollInterval:  *replPoll,
			Wait:          *replWait,
			ReadyLagBytes: *replReadyLag,
		})
		if err != nil {
			log.Fatalf("gbkmvd: -follow: %v", err)
		}
		follower = f
		follower.Start(context.Background())
		log.Printf("gbkmvd: following %s", *follow)
	}

	// The profiling endpoints live on their own listener (and a dedicated
	// mux, so they never leak onto the API port): pprof exposes heap contents
	// and can stall a process, which belongs on an operator-only address.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		cpu := &cpuProfiler{stop: make(chan struct{}, 1)}
		dmux.HandleFunc("/debug/pprof/profile", cpu.profile)
		dmux.HandleFunc("/debug/pprof/profile/stop", cpu.stopProfile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: *headerTimeout,
			IdleTimeout:       *idleTimeout,
		}
		go func() {
			log.Printf("gbkmvd: pprof listening on %s", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil {
				log.Printf("gbkmvd: pprof server: %v", err)
			}
		}()
	}

	// No server-wide WriteTimeout: it would sever WAL long-polls and large
	// snapshot transfers. -write-timeout applies per request through the
	// store's middleware instead, which exempts replication streams.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(store),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *headerTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if *dataDir == "" {
			log.Printf("gbkmvd: persistence disabled (no -data directory)")
		}
		log.Printf("gbkmvd: listening on %s (data: %s, %d collections loaded)",
			*addr, *dataDir, len(store.Names()))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("gbkmvd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("gbkmvd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("gbkmvd: shutdown: %v", err)
	}
	// Stop replicating before closing the store: an apply racing the close
	// would just fail noisily. Followers skip the shutdown snapshot inside
	// Close — their generation must keep tracking the leader's — and resume
	// from their own journal on restart.
	if follower != nil {
		follower.Close()
	}
	// Snapshot every collection with unsnapshotted inserts and close the
	// journals, so a restart replays nothing it doesn't have to.
	if err := store.Close(); err != nil {
		log.Printf("gbkmvd: closing store: %v", err)
	}
	log.Printf("gbkmvd: bye")
}

// cpuProfiler serves net/http/pprof's CPU profile, and with ?until=stop one
// that runs from its request until a request of /debug/pprof/profile/stop
// (or until its client goes): a profile of a phase that ends on an event
// rather than after a number of seconds. scripts/profile-serve.sh's setup
// mode stops one when the warm-up's last query has been answered.
type cpuProfiler struct {
	stop chan struct{} // one stop, kept until a profile takes it
}

func (p *cpuProfiler) profile(w http.ResponseWriter, r *http.Request) {
	if r.FormValue("until") != "stop" {
		pprof.Profile(w, r)
		return
	}
	select {
	case <-p.stop: // a stop no profile took
	default:
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := rtpprof.StartCPUProfile(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	select {
	case <-p.stop:
	case <-r.Context().Done():
	}
	rtpprof.StopCPUProfile()
}

func (p *cpuProfiler) stopProfile(http.ResponseWriter, *http.Request) {
	select {
	case p.stop <- struct{}{}:
	default:
	}
}
