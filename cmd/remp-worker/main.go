// Command remp-worker hosts shard engines for a clustered remp-server.
// It speaks the internal/cluster RPC protocol (length-prefixed JSON
// frames over TCP): the server's coordinator sends it the shards of live
// sessions it is to run — each one whole, in core's binary shard format —
// streams their command logs, and reads candidates, picks and balls back.
// A worker needs no dataset, no KB files and no configuration beyond its
// address: everything an engine computes on arrives in the prepare frame.
// Workers are stateless across restarts by design — a worker that dies
// loses only replayable state, which the coordinator sends again to the
// survivors, so results stay byte-identical.
//
// Usage:
//
//	remp-worker -addr :9101
//	remp-server -addr :8080 -workers localhost:9101,localhost:9102
//
// -addr :0 picks a free port; the readiness line printed to stdout
// ("remp-worker: listening on <addr>") carries the bound address for
// spawners. -kill-after-rpcs N makes the worker tear itself down after
// handling N requests — the crash half of a chaos drill.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"repro/internal/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("remp-worker: ")
	addr := flag.String("addr", ":9101", "listen address (use :0 for a free port)")
	killAfter := flag.Int64("kill-after-rpcs", 0, "simulate a crash after handling this many requests (0 = never)")
	quiet := flag.Bool("quiet", false, "suppress diagnostic logging")
	flag.Parse()

	var faults *cluster.Faults
	if *killAfter > 0 {
		faults = &cluster.Faults{CrashAfterRPCs: *killAfter}
	}
	cfg := cluster.WorkerConfig{Faults: faults}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	w := cluster.NewWorker(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The readiness line goes to stdout (logs go to stderr): spawners
	// scrape it to learn the bound address, exactly once, before any
	// diagnostic output can interleave.
	fmt.Printf("remp-worker: listening on %s\n", ln.Addr())
	os.Stdout.Sync()
	if err := w.Serve(ln); err != nil {
		log.Fatal(err)
	}
}
