package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Workloads lists the workload names in BENCHMARK.json's order.
var Workloads = []string{"prepare-scale", "loop-clustered", "serve-disk", "serve-cluster"}

// Config is one invocation of one workload.
type Config struct {
	Workload string
	// Seed derives every generated input: dataset seeds, the label hash
	// and the clients' spec ranges.
	Seed int64
	// Seconds sizes the fixed work so an untraced run measures for about
	// this long on the 2-core sandbox the sizes were calibrated on.
	Seconds int
	// Traced selects the per-layer run: spans around every call into a
	// layer and every HTTP call, /metrics deltas, child rusage, the frame
	// relay. End-to-end metrics are measured with it off.
	Traced bool
	// BenchDir is the benchmark module's directory (holding go.mod and
	// out/); children are built from there.
	BenchDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// Sizes overrides the work sizes (tests); nil derives them from
	// Seconds.
	Sizes *Sizes
	// Cleanup, when set, also receives the run's children and scratch
	// directories, so a signal handler can stop them; Run closes it
	// before returning either way.
	Cleanup *Cleanup
}

// Sizes fixes how much work each workload does. Work is fixed, not
// time: counts then repeat exactly on one seed and a faster program
// simply finishes sooner.
type Sizes struct {
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int

	// prepare-scale: entities per KB, measured reps; entities per KB of
	// the two sibling datasets the loop runs on, and measured resolves of
	// each.
	ScaleN        int
	PrepareReps   int
	ScaleLoopN    int
	ScaleResolves int

	// loop-clustered: dataset shape, distinct datasets per run and
	// measured resolves of each.
	Clusters     int
	MeanSize     int
	LoopDatasets int
	LoopReps     int

	// serve-disk: specs each of the two clients walks (cold + rerun),
	// sessions in the kill/recover phase and how often they are killed.
	DiskSpecs       int
	RecoverSessions int
	RecoverCycles   int
	// serve-cluster: cold sessions of the single client.
	ClusterSessions int
	// In-process reference: how many of the served specs are also
	// prepared and resolved in process, and (traced) run through the
	// in-process session twin.
	RefSpecs int
}

// DefaultSizes scales the work to the run length. The constants were
// calibrated on the 2-core sandbox (see README.md): at 20 seconds each
// untraced run measures for 17–21 s. A traced run does a fraction of
// the timed work, since its numbers attribute rather than gate.
func DefaultSizes(seconds int, traced bool) Sizes {
	if seconds < 1 {
		seconds = 1
	}
	s := Sizes{
		Setups:          5,
		ScaleN:          50_000,
		PrepareReps:     max(3, seconds*11/20),
		ScaleLoopN:      5_000,
		ScaleResolves:   max(2, seconds*4/20),
		Clusters:        120,
		MeanSize:        60,
		LoopDatasets:    max(3, seconds*12/20),
		LoopReps:        2,
		DiskSpecs:       max(4, seconds*22/20),
		RecoverSessions: 16,
		RecoverCycles:   3,
		ClusterSessions: max(4, seconds*44/20),
		RefSpecs:        max(4, seconds*16/20),
	}
	if traced {
		s.Setups = 1
		s.PrepareReps = max(2, s.PrepareReps/3)
		s.ScaleResolves = 1
		s.LoopDatasets = max(2, s.LoopDatasets/4)
		s.DiskSpecs = max(4, s.DiskSpecs/2)
		s.ClusterSessions = max(4, s.ClusterSessions/2)
		s.RefSpecs = max(4, s.RefSpecs/2)
	}
	return s
}

// env is the state of one run.
type env struct {
	cfg    Config
	seed   int64
	traced bool
	sizes  Sizes
	report *Report
	tracer *Tracer // nil when tracing is off
	outDir string  // <BenchDir>/out: logs, traces, binaries
	tmpDir string  // per-run scratch under outDir, removed at exit
	procs  *Cleanup
	start  time.Time
	// servers counts the remp-server children started so far; it numbers
	// their stderr logs.
	servers int
}

func (e *env) logf(format string, args ...any) {
	if e.cfg.Log != nil {
		fmt.Fprintf(e.cfg.Log, "remp-e2e: [%6.2fs] "+format+"\n", append([]any{time.Since(e.start).Seconds()}, args...)...)
	}
}

// Run executes one workload and returns its report. The error is for
// the harness failing to run at all (unknown workload, no build, no
// free port); failed operations and checks are counted in the report.
// Every child process is stopped and reaped before Run returns.
func Run(cfg Config) (*Report, error) {
	if cfg.Seconds <= 0 {
		cfg.Seconds = 20
	}
	sz := DefaultSizes(cfg.Seconds, cfg.Traced)
	if cfg.Sizes != nil {
		sz = *cfg.Sizes
	}
	outDir, err := filepath.Abs(filepath.Join(cfg.BenchDir, "out"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmpDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	if cfg.Cleanup == nil {
		cfg.Cleanup = NewCleanup()
	}
	cfg.Cleanup.addDir(tmpDir)
	defer cfg.Cleanup.Close()
	e := &env{
		cfg: cfg, seed: cfg.Seed, traced: cfg.Traced, sizes: sz,
		report: newReport(cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Traced),
		outDir: outDir, tmpDir: tmpDir, procs: cfg.Cleanup, start: time.Now(),
	}
	if cfg.Traced {
		e.tracer = NewTracer()
	}

	switch cfg.Workload {
	case "prepare-scale":
		err = runPrepareScale(e)
	case "loop-clustered":
		err = runLoopClustered(e)
	case "serve-disk":
		err = runServe(e, false)
	case "serve-cluster":
		err = runServe(e, true)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", cfg.Workload, Workloads)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	e.report.set("bench.nproc", "count", float64(runtime.NumCPU()))
	e.report.set("bench.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	if e.tracer != nil {
		path := filepath.Join(outDir, "trace-"+cfg.Workload+".json")
		if werr := e.tracer.Write(path); werr != nil {
			return nil, fmt.Errorf("writing %s: %w", path, werr)
		}
		e.logf("trace written to %s", path)
	}
	return e.report, nil
}

// headlineFile remembers an untraced run's headline metric so a later
// traced run of the same workload, seed and length can report the
// tracing overhead as a ratio.
type headlineFile struct {
	Seed    int64   `json:"seed"`
	Seconds int     `json:"seconds"`
	Metric  string  `json:"metric"`
	Value   float64 `json:"value"`
}

// headline stores (untraced) or compares (traced) the workload's
// headline metric. Without a matching untraced run on disk the ratio
// reads 0: there is nothing to compare against.
func (e *env) headline(metric string) {
	m, ok := e.report.Metrics[metric]
	if !ok || m.Value <= 0 {
		return
	}
	path := filepath.Join(e.outDir, "headline-"+e.cfg.Workload+".json")
	if !e.traced {
		data, _ := json.Marshal(headlineFile{Seed: e.seed, Seconds: e.cfg.Seconds, Metric: metric, Value: m.Value})
		_ = os.WriteFile(path, data, 0o644) // best effort: only the overhead ratio depends on it
		return
	}
	var h headlineFile
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &h) == nil &&
		h.Seed == e.seed && h.Seconds == e.cfg.Seconds && h.Metric == metric && h.Value > 0 {
		e.report.set("bench.trace_overhead_ratio", "ratio", m.Value/h.Value)
	}
}
