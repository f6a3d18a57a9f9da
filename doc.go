// Package repro is a from-scratch Go reproduction of "Crowdsourced
// Collective Entity Resolution with Relational Match Propagation" (Huang,
// Hu, Bao, Qu — ICDE 2020): resolving the entity pairs two knowledge bases
// share by asking a crowd few questions and propagating each answer
// through the KBs' relationships.
//
// The public API is package remp; the pipeline's four stages (candidate
// pruning, probabilistic propagation, question selection, error-tolerant
// truth inference), the sessions, server, answer log and shard cluster
// around them, and the baselines, datasets and experiment drivers live
// under internal/. The commands are under cmd/ and runnable examples
// under examples/.
//
// This root package holds the benchmark suite that regenerates every table
// and figure of the paper's evaluation (bench_test.go,
// ablation_bench_test.go) and docs_test.go, which holds README.md and
// ARCHITECTURE.md to the code. README.md is the user's guide;
// ARCHITECTURE.md states each mechanism and why it is built that way.
package repro
