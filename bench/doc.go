// Package bench is the repository's end-to-end benchmark harness: four
// named workloads, one command (cmd/remp-e2e), end-to-end metrics
// measured with tracing off and per-layer metrics derived from a
// separate traced run. BENCHMARK.json at the repository root is the
// machine-readable contract (workloads, metric names, units, bounds);
// README.md in this directory records why each workload exists, how to
// read the trace file and the first measured point.
//
// The harness is stdlib-only and observes the program strictly from the
// outside: it calls the layers' public functions, drives the real
// remp-server and remp-worker binaries over HTTP and TCP, scrapes
// /metrics, reads child rusage and the data directory. It never edits
// the program under test, and the program only ever sees inputs the
// harness generated from -seed.
//
// Later performance changes must not edit this directory or
// BENCHMARK.json: a change that claims a gain is measured by the
// benchmark it found, and a change to the benchmark claims no gain.
package bench
