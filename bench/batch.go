package bench

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/pair"
	"repro/remp"
)

// runPrepareScale is the prepare-scale workload: the pre-pipeline on the
// scale-<n> stress dataset, files on disk → ready pipeline, in process.
func runPrepareScale(e *env) error {
	r, sz := e.report, e.sizes
	dir := e.tmpDir
	snap1, snap2 := filepath.Join(dir, "scale-k1.snap"), filepath.Join(dir, "scale-k2.snap")

	// Set-up leaves only the two files behind: the generated KBs must not
	// stay live, or every collection during the reps would mark them.
	_, err := medianSetup(r, sz.Setups, func() (struct{}, error) {
		ds := datasets.Scale(e.seed, sz.ScaleN)
		if err := ds.K1.WriteSnapshotFile(snap1); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, ds.K2.WriteSnapshotFile(snap2)
	}, func(struct{}) {})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	e.logf("set-up done")
	opts := remp.Options{Shards: Shards, Seed: e.seed}

	// Reps: the first is a warm-up (page cache, allocator) and discarded.
	var prepareS []float64
	var first uint64
	var live remp.Dataset
	for rep := 0; rep <= sz.PrepareReps; rep++ {
		live = remp.Dataset{}
		runtime.GC() // every rep starts from the same heap, not mid-collection of the last one
		traceID := e.tracer.NewTraceID()
		root := e.tracer.Start(traceID, 0, "bench", "rep")
		t0 := time.Now()
		var k1, k2 *kb.KB
		var err1, err2 error
		e.tracer.Do(traceID, root, "kb", "kb.open_snapshot", func() { k1, err1 = kb.OpenSnapshot(snap1) })
		e.tracer.Do(traceID, root, "kb", "kb.open_snapshot", func() { k2, err2 = kb.OpenSnapshot(snap2) })
		if err1 != nil || err2 != nil {
			e.tracer.End(root)
			r.fail("rep %d: opening snapshots: %v %v", rep, err1, err2)
			continue
		}
		live = remp.Dataset{K1: k1, K2: k2}
		pid := e.tracer.Start(traceID, root, "core", "remp.prepare_pipeline")
		p, err := remp.PreparePipeline(live, opts)
		e.tracer.End(pid)
		d := time.Since(t0)
		e.tracer.End(root)
		if err != nil {
			r.fail("rep %d: PreparePipeline: %v", rep, err)
			continue
		}
		sum := pairsChecksum(p.Retained)
		if rep == 0 {
			first = sum
			continue
		}
		if sum != first {
			r.fail("rep %d: retained-pair checksum %016x differs from rep 0's %016x", rep, sum, first)
			continue
		}
		r.ok()
		prepareS = append(prepareS, seconds(d))
	}
	r.setSamples("prepare_s", "s", prepareS)

	if live.K1 == nil {
		return fmt.Errorf("no rep succeeded")
	}
	heap, err := preparedHeapMB(live, opts)
	r.check(err == nil, "prepared heap: %v", err)
	r.set("prepared_heap_mb", "MB", heap)

	// The loop on this data shape: the full loop on the 50k pair takes
	// minutes and is deliberately not run, so resolve_s, questions and f1
	// come from the same generator at a tenth of the size. Propagation
	// only: the isolated-pair forest's verdict on Scale's perturbed-label
	// class flips between seeds (F1 0.38 or 0.66 on the same shape), which
	// would make f1 a coin toss here. The budget is three questions per
	// ten entities, below the 0.38–0.40 a sibling asks when left to its
	// stop criterion: that count moves by ±3 % with the dataset seed, which
	// alone would force a 6 % bound on questions; capped, questions is the
	// same on every seed and the crowd-cost guard is f1 at that budget
	// (0.53 at two per ten, 0.65 here, 0.73 uncapped: steep enough to show
	// a worse selection).
	siblings := make([]packed, 2)
	for i := range siblings {
		if siblings[i], err = pack(datasets.Scale(e.seed*2+int64(i), sz.ScaleLoopN)); err != nil {
			return err
		}
	}
	live = remp.Dataset{}
	e.logf("prepare reps done")
	e.runResolves(siblings, resolveOpts{seed: e.seed, noClassifier: true, budget: sz.ScaleLoopN * 3 / 10}, sz.ScaleResolves, false)
	if e.traced {
		k1, err1 := kb.OpenSnapshot(snap1)
		k2, err2 := kb.OpenSnapshot(snap2)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("reopening snapshots for the layer probes: %v %v", err1, err2)
		}
		layerProbe(r, e.tracer, k1, k2, dir)
	}
	e.headline("prepare_s")
	return nil
}

// packed is one generated dataset at rest: both KBs as REMPKB1
// snapshot bytes and the gold standard as a flat pair list. A run's
// datasets wait in this form because a live KB is a forest of maps:
// twelve of them made every garbage collection — the forced ones between
// reps and, worse, the ones inside the timed resolves — mark 100 MB of
// unrelated data.
type packed struct {
	name   string
	k1, k2 []byte
	gold   []pair.Pair
}

func pack(ds *datasets.Dataset) (packed, error) {
	var b1, b2 bytes.Buffer
	if err := ds.K1.WriteSnapshot(&b1); err != nil {
		return packed{}, err
	}
	if err := ds.K2.WriteSnapshot(&b2); err != nil {
		return packed{}, err
	}
	return packed{name: ds.Name, k1: b1.Bytes(), k2: b2.Bytes(), gold: ds.Gold.Matches()}, nil
}

func (p packed) unpack() (*datasets.Dataset, error) {
	k1, err := kb.ReadSnapshot(p.k1)
	if err != nil {
		return nil, err
	}
	k2, err := kb.ReadSnapshot(p.k2)
	if err != nil {
		return nil, err
	}
	return &datasets.Dataset{Name: p.name, K1: k1, K2: k2, Gold: pair.NewGold(p.gold)}, nil
}

// runLoopClustered is the loop-clustered workload: remp.Resolve to
// completion on clustered synthetic graphs, in process. A run resolves
// several datasets (seeds derived from -seed) rather than one many
// times: resolve time differs by ±10 % between Clustered seeds, five
// times the run-to-run noise, and a median over datasets averages that
// out of the across-seed spread.
func runLoopClustered(e *env) error {
	r, sz := e.report, e.sizes
	sets, err := medianSetup(r, sz.Setups, func() ([]packed, error) {
		sets := make([]packed, sz.LoopDatasets)
		for d := range sets {
			var err error
			if sets[d], err = pack(datasets.Clustered(sz.Clusters, sz.MeanSize, e.seed*1000+int64(d))); err != nil {
				return nil, err
			}
		}
		return sets, nil
	}, func([]packed) {})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	e.logf("set-up done")
	for _, final := range e.runResolves(sets, resolveOpts{seed: e.seed}, sz.LoopReps, true) {
		err := eval.OneToOne(pair.Set(final.Matches))
		r.check(err == nil, "final match set violates 1:1: %v", err)
	}
	if e.traced {
		if ds, err := sets[0].unpack(); err == nil {
			layerProbe(r, e.tracer, ds.K1, ds.K2, e.tmpDir)
		}
	}
	e.headline("resolve_s")
	return nil
}

// runResolves resolves every dataset reps times in process (after one
// discarded warm-up on the first) and reports resolve_s (median over
// all reps), questions (summed over datasets), f1 (mean over datasets)
// and answers_per_s; with prepare set it first times one
// remp.PreparePipeline per dataset as prepare_s and measures
// prepared_heap_mb on the first. Every rep on a dataset must reproduce
// the first rep's canonical result. A traced run sends the first rep of
// each dataset through the public remp.Resolve and the others through
// resolveTraced, so the two paths' results are compared, and
// additionally reports the loop, runner and engine metrics. It returns
// each dataset's final result.
func (e *env) runResolves(sets []packed, o resolveOpts, reps int, prepare bool) []*remp.Result {
	r := e.report
	var resolveS, prepareS []float64
	var finals []*remp.Result
	var probes []loopProbe
	rs := &runnerStats{}
	questions, f1 := 0, 0.0
	for d, pk := range sets {
		ds, err := pk.unpack()
		if err != nil {
			r.fail("dataset %d: %v", d, err)
			continue
		}
		rds := remp.Dataset{K1: ds.K1, K2: ds.K2}
		l := labeler{seed: e.seed, gold: ds.Gold}
		if prepare {
			if d == 0 {
				heap, err := preparedHeapMB(rds, o.public()) // doubles as the prepare warm-up
				r.check(err == nil, "prepared heap: %v", err)
				r.set("prepared_heap_mb", "MB", heap)
			}
			runtime.GC()
			t0 := time.Now()
			_, err := remp.PreparePipeline(rds, o.public())
			dur := time.Since(t0)
			r.check(err == nil, "dataset %d: PreparePipeline: %v", d, err)
			if err == nil {
				prepareS = append(prepareS, seconds(dur))
			}
		}
		var first []byte
		var final *remp.Result
		start := 1
		if d == 0 || e.traced {
			start = 0 // rep 0: the run's warm-up, or (traced) the public-path reference
		}
		for rep := start; rep <= reps; rep++ {
			var res *remp.Result
			var err error
			var lp loopProbe
			runtime.GC()
			t0 := time.Now()
			if e.traced && rep > 0 {
				traceID := e.tracer.NewTraceID()
				root := e.tracer.Start(traceID, 0, "bench", "rep")
				res, lp, err = resolveTraced(e.tracer, traceID, root, ds, l, o, rs)
				e.tracer.End(root)
			} else {
				res, err = resolvePublic(ds, l, o)
			}
			dur := time.Since(t0)
			if err != nil {
				r.fail("dataset %d resolve rep %d: %v", d, rep, err)
				continue
			}
			canon := canonicalResult(ds, res)
			if first == nil {
				first = canon
			}
			if string(canon) != string(first) {
				r.fail("dataset %d resolve rep %d: result %s differs from the first rep's %s", d, rep, digest(canon), digest(first))
				continue
			}
			if rep == 0 {
				continue
			}
			r.ok()
			final = res
			resolveS = append(resolveS, seconds(dur))
			if e.traced {
				probes = append(probes, lp)
			}
		}
		if final != nil {
			finals = append(finals, final)
			questions += final.Questions
			f1 += remp.Evaluate(final.Matches, ds.Gold).F1
		}
	}
	if len(finals) == 0 {
		return nil
	}
	if prepare {
		r.setSamples("prepare_s", "s", prepareS)
	}
	r.setSamples("resolve_s", "s", resolveS)
	r.set("questions", "count", float64(questions))
	r.set("f1", "ratio", f1/float64(len(finals)))
	if m := median(resolveS); m > 0 {
		r.set("answers_per_s", "1/s", float64(questions)/float64(len(finals))/m)
	}
	if e.traced {
		reportLoop(r, probes)
		rs.report(r, float64(len(probes)))
		deduced := 0
		for _, f := range finals {
			deduced += f.Deduced
		}
		r.set("deduce.hits", "count", float64(deduced))
	}
	return finals
}
