// Command remp-server serves resolution sessions over HTTP/JSON: create a
// session on a dataset, poll its question batches, post crowd answers as
// they arrive (in any order), snapshot and restore across restarts, and
// fetch the final result with precision/recall/F1.
//
// Usage:
//
//	remp-server -addr :8080 -store disk -data-dir ./remp-data
//
// With -workers the server runs in cluster mode: every session's shard
// engines are placed on the remp-worker processes at the given
// comma-separated addresses, with heartbeat liveness and crash failover
// (a killed worker's shards are re-prepared on survivors and their
// command logs replayed — results stay byte-identical):
//
//	remp-worker -addr :9101 & remp-worker -addr :9102 &
//	remp-server -addr :8080 -workers localhost:9101,localhost:9102
//
// -chaos injects faults into coordinator→worker frames for drills, e.g.
// -chaos drop=20,dup=10 (see internal/cluster.ParseFaults).
//
// With -store disk every session is journaled to the data directory:
// each accepted answer is fsync'd to the session's log before the HTTP
// response, and a restarted server (even after a hard kill) recovers
// all sessions under their original IDs. -store mem keeps sessions in
// memory only. SIGINT/SIGTERM shut the server down gracefully:
// in-flight requests drain (new ones are refused with 503) and the
// store is closed.
//
// -debug-addr serves net/http/pprof on a second listener, kept off the
// public address so profiling endpoints are never exposed with the API:
//
//	remp-server -addr :8080 -debug-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Create a session on a built-in dataset and answer its first question:
//
//	curl -s localhost:8080/v1/sessions -d '{"dataset":"iimb","seed":1,"options":{"mu":10}}'
//	curl -s localhost:8080/v1/sessions/s1/batch
//	curl -s localhost:8080/v1/sessions/s1/answers \
//	     -d '{"answers":[{"id":"3-7","labels":[{"worker":0,"quality":0.97,"match":true}]}]}'
//	curl -s localhost:8080/v1/sessions/s1/result
//
// Telemetry is on GET /metrics (Prometheus text), liveness on /healthz,
// readiness on /readyz. See the package comment of internal/server for the
// full endpoint list.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the debug listener's DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/session"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, readTimeout how long it may take to send the whole
// request, body included, and idleTimeout how long a keep-alive connection
// may sit between requests, so idle or trickling clients cannot pin
// connections and handler goroutines — on the API port and the debug port
// alike. A handler may run past readTimeout: a long pprof profile is fine.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns a server for h (nil: http.DefaultServeMux) on addr
// with the three timeouts set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("remp-server: ")
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "optional second listen address for net/http/pprof (e.g. localhost:6060)")
	quiet := flag.Bool("quiet", false, "log warnings and errors only")
	shards := flag.Int("shards", 0, "default shard count for sessions that do not specify one (0 = auto, 1 = one shard)")
	storeKind := flag.String("store", "mem", "session store backend: mem (in-memory) or disk (crash-safe: one fsync'd answer log per session)")
	dataDir := flag.String("data-dir", "remp-data", "session store directory (with -store disk)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	workers := flag.String("workers", "", "comma-separated remp-worker addresses; enables cluster mode")
	chaos := flag.String("chaos", "", "fault injection for cluster RPCs, e.g. drop=20,dup=10,delay=5:50ms,kill=500")
	flag.Parse()

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var store session.Store
	switch *storeKind {
	case "mem":
	case "disk":
		ds, err := session.NewDiskStore(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		store = ds
	default:
		log.Fatalf("unknown -store %q (want mem or disk)", *storeKind)
	}

	cfg := server.Config{Logger: logger, Store: store, DefaultShards: *shards}
	if *workers != "" {
		cfg.Cluster.Workers = strings.Split(*workers, ",")
	}
	if *chaos != "" {
		faults, ferr := cluster.ParseFaults(*chaos)
		if ferr != nil {
			log.Fatal(ferr)
		}
		cfg.Cluster.Faults = faults
	}
	srv, recovered, err := server.NewServer(cfg)
	if srv == nil {
		// Only configuration failures (an unusable cluster config, a
		// negative -shards) leave no server behind.
		log.Fatal(err)
	}
	if err != nil {
		// Recovery errors are non-fatal: the sessions that recovered are
		// serving; the broken ones are reported and skipped.
		logger.Warn("recovery", "err", err)
	}
	logger.Info("starting",
		"addr", *addr, "store", *storeKind, "data_dir", *dataDir, "default_shards", *shards,
		"sessions_recovered", len(recovered), "wal_replayed", srv.WALReplayed())

	if *debugAddr != "" {
		// pprof registers itself on http.DefaultServeMux; serving that mux
		// on a separate listener keeps profiling off the public API port.
		go func() {
			logger.Info("debug listener (pprof)", "addr", *debugAddr)
			if derr := newHTTPServer(*debugAddr, nil).ListenAndServe(); derr != nil {
				logger.Warn("debug listener", "err", derr)
			}
		}()
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		logger.Info("draining on signal", "signal", sig.String())
	}

	// Drain the application first, over the live listener: the gate
	// refuses new /v1 requests with 503 + Retry-After while the ones in
	// flight finish, then the store closes. Only then is the HTTP server
	// itself torn down —
	// closing the listener first would turn the documented
	// drain-then-refuse behavior into connection-refused.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	storeErr := srv.Shutdown(drainCtx)
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	if storeErr != nil {
		log.Fatalf("store shutdown: %v", storeErr)
	}
	logger.Info("bye")
}
