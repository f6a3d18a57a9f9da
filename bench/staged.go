package bench

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/attrmatch"
	"repro/internal/blocking"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/ergraph"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/selection"
	"repro/internal/simvec"
)

// stagedSpans are the spans of the staged Prepare composition that map
// one to one onto a per-layer "<span>_s" metric; their sum over
// core.Prepare's wall time is core.prepare_covered_ratio.
var stagedSpans = []string{
	"blocking.generate", "attrmatch.find_matches", "simvec.build_all", "simvec.prune",
	"ergraph.build", "consistency.fit", "partition.split", "propagation.build_prob",
}

// staged holds the artifacts of one staged Prepare.
type staged struct {
	blk      *blocking.Result
	matches  []attrmatch.Match
	retained []pair.Pair
	graph    *ergraph.Graph
	labels   []ergraph.RelPair
	part     *partition.Partition // nil when single-shard
	probs    []*propagation.ProbGraph
	priors   map[pair.Pair]float64
}

// pairsChecksum fingerprints a retained-pair list.
func pairsChecksum(pairs []pair.Pair) uint64 {
	h := fnv.New64a()
	for _, p := range pairs {
		fmt.Fprintf(h, "%d,%d;", p.U1, p.U2)
	}
	return h.Sum64()
}

// stagedPrepare reproduces core.Prepare from the layers' public
// functions, in core's order and with core's parameters, recording one
// span per call. What it cannot reach — the priors and per-entity maps,
// the shard subgraphs — it rebuilds under "core.glue" spans, which count
// as uncovered time.
func stagedPrepare(tr *Tracer, traceID, parent int64, k1, k2 *kb.KB, cfg core.Config) *staged {
	sched := core.NewScheduler(0)
	st := &staged{}
	do := func(layer, name string, fn func()) { tr.Do(traceID, parent, layer, name, fn) }

	do("blocking", "blocking.generate", func() {
		st.blk = blocking.Generate(k1, k2, blocking.Options{Threshold: cfg.LabelSimThreshold, Runner: sched})
	})
	do("attrmatch", "attrmatch.find_matches", func() {
		o := attrmatch.DefaultOptions()
		o.LiteralThreshold = cfg.LiteralThreshold
		o.Runner = sched
		st.matches = attrmatch.FindMatches(k1, k2, st.blk.Initial, o)
	})
	cands := make([]pair.Pair, len(st.blk.Candidates))
	for i, c := range st.blk.Candidates {
		cands[i] = c.Pair
	}
	var vectors []simvec.Vector
	do("simvec", "simvec.build_all", func() {
		b := simvec.NewBuilder(k1, k2, st.matches, cfg.LiteralThreshold)
		b.SetRunner(sched)
		vectors = b.All(cands)
	})
	do("simvec", "simvec.prune", func() {
		st.retained = simvec.NewPruner(cands, vectors).Prune(cands, cfg.K)
	})
	do("ergraph", "ergraph.build", func() { st.graph = ergraph.Build(k1, k2, st.retained) })
	do("core", "core.glue", func() {
		st.priors = make(map[pair.Pair]float64, len(st.retained))
		for _, q := range st.retained {
			st.priors[q] = st.blk.Priors[q]
		}
	})
	st.labels = st.graph.Labels()
	est := make(map[ergraph.RelPair]consistency.Estimate, len(st.labels))
	do("consistency", "consistency.fit", func() {
		seedSet := pair.NewSet(st.blk.Initial...)
		fits := make([]consistency.Estimate, len(st.labels))
		sched.ForEach(len(st.labels), func(i int) {
			fits[i] = consistency.Fit(observations(k1, k2, st.labels[i], st.blk.Initial, seedSet), consistency.DefaultOptions())
		})
		for i, l := range st.labels {
			est[l] = fits[i]
		}
	})
	params := propagation.Params{Priors: st.priors, Consistency: est}
	if st.graph.NumVertices() < 2 {
		do("propagation", "propagation.build_prob", func() {
			st.probs = []*propagation.ProbGraph{propagation.BuildProb(st.graph, k1, k2, params)}
		})
		return st
	}
	do("partition", "partition.split", func() {
		st.part = partition.Split(st.graph.Vertices(), func(i int) []int {
			idx := st.graph.OutIndexesAt(i)
			out := make([]int, len(idx))
			for k, j := range idx {
				out[k] = int(j)
			}
			return out
		}, Shards)
	})
	subs := make([]*ergraph.Graph, st.part.NumShards())
	do("core", "core.glue", func() {
		sched.ForEach(len(subs), func(s int) { subs[s] = st.graph.Subgraph(st.part.Shard(s)) })
	})
	st.probs = make([]*propagation.ProbGraph, len(subs))
	do("propagation", "propagation.build_prob", func() {
		sched.ForEach(len(subs), func(s int) { st.probs[s] = propagation.BuildProb(subs[s], k1, k2, params) })
	})
	return st
}

// observations gathers one label's (|N1|, |N2|, knownL) triples over the
// seed matches, as core's consistency fit does.
func observations(k1, k2 *kb.KB, label ergraph.RelPair, seeds []pair.Pair, seedSet pair.Set) []consistency.Observation {
	var out []consistency.Observation
	for _, m := range seeds {
		var n1, n2 []kb.EntityID
		if label.Inverse {
			n1, n2 = k1.In(m.U1, label.R1), k2.In(m.U2, label.R2)
		} else {
			n1, n2 = k1.Out(m.U1, label.R1), k2.Out(m.U2, label.R2)
		}
		if len(n1) == 0 && len(n2) == 0 {
			continue
		}
		known := 0
		for _, v1 := range n1 {
			for _, v2 := range n2 {
				if seedSet.Has(pair.Pair{U1: v1, U2: v2}) {
					known++
					break
				}
			}
		}
		out = append(out, consistency.Observation{N1: len(n1), N2: len(n2), KnownL: known})
	}
	return out
}

// layerProbe runs the per-layer probes of a traced run on one KB pair:
// the KB loaders on files written to dir, the staged Prepare beside one
// whole core.Prepare (checksum-checked), and the propagation/selection
// algorithms on the prepared graphs. Times are single shots on a quiet
// process; they attribute, they do not gate.
func layerProbe(r *Report, tr *Tracer, k1, k2 *kb.KB, dir string) {
	traceID := tr.NewTraceID()
	root := tr.Start(traceID, 0, "bench", "probe")
	defer tr.End(root)
	do := func(layer, name string, fn func()) { tr.Do(traceID, root, layer, name, fn) }

	// kb: the same KB through both loaders.
	snapBytes := int64(0)
	for i, k := range []*kb.KB{k1, k2} {
		snap := filepath.Join(dir, fmt.Sprintf("probe-k%d.snap", i+1))
		tsv := filepath.Join(dir, fmt.Sprintf("probe-k%d.tsv", i+1))
		if err := k.WriteSnapshotFile(snap); err != nil {
			r.fail("probe: writing snapshot: %v", err)
			return
		}
		if err := writeTSV(k, tsv); err != nil {
			r.fail("probe: writing TSV: %v", err)
			return
		}
		if fi, err := os.Stat(snap); err == nil {
			snapBytes += fi.Size()
		}
		do("kb", "kb.open_snapshot", func() {
			got, err := kb.OpenSnapshot(snap)
			r.check(err == nil && got.NumEntities() == k.NumEntities(), "probe: OpenSnapshot(%s): %v", snap, err)
		})
		do("kb", "kb.read_tsv", func() {
			f, err := os.Open(tsv)
			if err != nil {
				r.fail("probe: %v", err)
				return
			}
			defer f.Close()
			got, err := kb.ReadTSV(bufio.NewReader(f))
			r.check(err == nil && got.NumEntities() == k.NumEntities(), "probe: ReadTSV(%s): %v", tsv, err)
		})
		os.Remove(snap)
		os.Remove(tsv)
	}
	r.set("kb.snapshot_mb", "MB", float64(snapBytes)/1e6)

	cfg := core.DefaultConfig()
	cfg.Shards = Shards
	// The whole Prepare runs before and after the staged one and the two
	// are averaged, so warm-up and drift fall on both sides of the ratio.
	var whole *core.Prepared
	runtime.GC()
	t0 := time.Now()
	do("core", "core.prepare", func() { whole = core.Prepare(k1, k2, cfg) })
	wholeS := seconds(time.Since(t0))
	runtime.GC()
	stagedID := tr.Start(traceID, root, "bench", "core.prepare.staged")
	st := stagedPrepare(tr, traceID, stagedID, k1, k2, cfg)
	tr.End(stagedID)
	runtime.GC()
	t0 = time.Now()
	do("core", "core.prepare", func() { whole = core.Prepare(k1, k2, cfg) })
	wholeS = (wholeS + seconds(time.Since(t0))) / 2
	r.check(pairsChecksum(st.retained) == pairsChecksum(whole.Retained) &&
		st.graph.NumVertices() == whole.Graph.NumVertices() && st.graph.NumEdges() == whole.Graph.NumEdges() &&
		len(st.probs) == whole.NumShards(),
		"staged Prepare diverged from core.Prepare: retained %016x vs %016x, %d/%d vertices, %d/%d shards",
		pairsChecksum(st.retained), pairsChecksum(whole.Retained), st.graph.NumVertices(), whole.Graph.NumVertices(), len(st.probs), whole.NumShards())

	// Algorithm 2 over every shard's graph, Algorithm 3 over candidates
	// built from its balls as the Figure 6 sweep builds them.
	nCands := 0
	for _, prob := range st.probs {
		var inf *propagation.Inferred
		do("propagation", "propagation.infer_all", func() { inf = prob.InferAll(cfg.Tau) })
		verts := prob.Graph().Vertices()
		cands := make([]selection.Candidate, 0, len(verts))
		for i, v := range verts {
			in := []int{i}
			for _, en := range inf.Ball(i) {
				in = append(in, int(en.Idx))
			}
			cands = append(cands, selection.Candidate{Pair: v, Prob: st.priors[v], Inferred: in})
		}
		nCands += len(cands)
		do("selection", "selection.greedy_select", func() { _ = (selection.Greedy{}).Select(cands, cfg.Mu) })
	}

	stats := tr.Stats(traceID)
	covered := 0.0
	for _, name := range append(append([]string(nil), stagedSpans...), "kb.open_snapshot", "kb.read_tsv", "propagation.infer_all", "selection.greedy_select") {
		r.set(name+"_s", "s", seconds(stats[name].Self))
	}
	for _, name := range stagedSpans {
		covered += seconds(stats[name].Self)
	}
	r.set("core.prepare_s", "s", wholeS)
	r.set("core.prepare_other_s", "s", wholeS-covered)
	if wholeS > 0 {
		r.set("core.prepare_covered_ratio", "ratio", covered/wholeS)
	}
	r.set("blocking.candidates", "count", float64(len(st.blk.Candidates)))
	r.set("blocking.initial", "count", float64(len(st.blk.Initial)))
	r.set("attrmatch.matches", "count", float64(len(st.matches)))
	r.set("simvec.retained", "count", float64(len(st.retained)))
	if n := len(st.blk.Candidates); n > 0 {
		r.set("simvec.retained_ratio", "ratio", float64(len(st.retained))/float64(n))
	}
	r.set("ergraph.vertices", "count", float64(st.graph.NumVertices()))
	r.set("ergraph.edges", "count", float64(st.graph.NumEdges()))
	r.set("consistency.labels", "count", float64(len(st.labels)))
	r.set("selection.candidates", "count", float64(nCands))
	if st.part != nil {
		r.set("partition.components", "count", float64(st.part.NumComponents()))
		max, sum := 0, 0
		for _, n := range st.part.Sizes() {
			sum += n
			if n > max {
				max = n
			}
		}
		if sum > 0 {
			r.set("partition.shard_size_max_over_mean", "ratio", float64(max)*float64(st.part.NumShards())/float64(sum))
		}
	}
}

// writeTSV stores a KB in the datagen TSV format.
func writeTSV(k *kb.KB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := k.WriteTSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
