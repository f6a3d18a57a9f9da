// Package crowd is the crowdsourcing substrate: a simulated worker pool
// in place of Amazon MTurk, so that runs are seeded and repeatable, plus
// the error-tolerant truth inference of §VII-A. Each question is assigned to several workers; a
// worker answers correctly with probability λ_w (the worker probability
// model); posterior match probabilities follow Eq. (17) and are thresholded
// into matches, non-matches and "hard" questions, which are not asked again.
package crowd

import (
	"math/rand"

	"repro/internal/pair"
)

// Worker is a crowd worker with quality λ ∈ (0,1]: the probability of
// labeling a question correctly. The paper reuses a platform qualification
// test as λ; the simulator draws answers accordingly.
type Worker struct {
	ID      int
	Quality float64
}

// Label is one worker's answer to one question, in the one form it has
// from a platform or a client's request through truth inference to a
// session's journal: the worker, the quality λ ∈ (0,1] that Eq. (17)
// weighs the verdict by, and the verdict. The JSON tags are the wire
// form. A label with WorkerID −1 (session.DeducedWorkerID) was
// synthesized by the answer-deduction tier, not given by a worker.
type Label struct {
	// WorkerID identifies the worker; it is opaque to the pipeline.
	WorkerID int `json:"worker"`
	// Quality is the worker's answer quality λ.
	Quality float64 `json:"quality"`
	// IsMatch is the worker's verdict.
	IsMatch bool `json:"match"`
}

// Oracle answers whether a pair is truly a match; in experiments this is
// the gold standard.
type Oracle func(pair.Pair) bool

// Platform simulates a crowdsourcing platform: a worker pool answering
// pairwise questions with per-worker error, plus bookkeeping of the number
// of questions issued (the #Q metric reported in every experiment).
type Platform struct {
	workers      []Worker
	rng          *rand.Rand
	oracle       Oracle
	perQuestion  int
	numQuestions int
	labelCache   map[pair.Pair][]Label
}

// Config configures a Platform.
type Config struct {
	// NumWorkers is the worker pool size. Default 50.
	NumWorkers int
	// WorkersPerQuestion is the redundancy (the paper uses 5).
	WorkersPerQuestion int
	// ErrorRate, when > 0, gives every worker quality 1−ErrorRate (the
	// simulated-worker experiments of Figure 3).
	ErrorRate float64
	// QualityLow/QualityHigh, used when ErrorRate == 0, draw each worker's
	// quality uniformly from [QualityLow, QualityHigh] (the "real worker"
	// experiment models MTurk's ≥95% approval filter: 0.93–0.99).
	QualityLow, QualityHigh float64
	// Seed drives all randomness.
	Seed int64
}

// NewPlatform builds a simulated platform answering from the oracle.
func NewPlatform(oracle Oracle, cfg Config) *Platform {
	if cfg.NumWorkers <= 0 {
		cfg.NumWorkers = 50
	}
	if cfg.WorkersPerQuestion <= 0 {
		cfg.WorkersPerQuestion = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	workers := make([]Worker, cfg.NumWorkers)
	for i := range workers {
		q := 0.0
		if cfg.ErrorRate > 0 {
			q = 1 - cfg.ErrorRate
		} else {
			lo, hi := cfg.QualityLow, cfg.QualityHigh
			if lo <= 0 || hi <= 0 || hi < lo {
				lo, hi = 0.93, 0.99
			}
			q = lo + (hi-lo)*rng.Float64()
		}
		if q <= 0 {
			q = 0.5
		}
		if q > 1 {
			q = 1
		}
		workers[i] = Worker{ID: i, Quality: q}
	}
	return &Platform{
		workers:     workers,
		rng:         rng,
		oracle:      oracle,
		perQuestion: cfg.WorkersPerQuestion,
		labelCache:  map[pair.Pair][]Label{},
	}
}

// Ask publishes question q to WorkersPerQuestion distinct workers and
// returns their labels. Repeated questions are answered from a cache
// without incrementing the question count, mirroring the paper's setup
// where a label is reused across approaches.
func (pl *Platform) Ask(q pair.Pair) []Label {
	if cached, ok := pl.labelCache[q]; ok {
		return cached
	}
	pl.numQuestions++
	truth := pl.oracle(q)
	chosen := pl.rng.Perm(len(pl.workers))[:min(pl.perQuestion, len(pl.workers))]
	labels := make([]Label, 0, len(chosen))
	for _, wi := range chosen {
		w := pl.workers[wi]
		ans := truth
		if pl.rng.Float64() >= w.Quality {
			ans = !truth
		}
		labels = append(labels, Label{WorkerID: w.ID, Quality: w.Quality, IsMatch: ans})
	}
	pl.labelCache[q] = labels
	return labels
}

// NumQuestions returns the number of distinct questions asked so far.
func (pl *Platform) NumQuestions() int { return pl.numQuestions }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Verdict classifies a question after truth inference.
type Verdict int

// Truth-inference outcomes.
const (
	// Unresolved means the labels were inconsistent (hard question).
	Unresolved Verdict = iota
	// IsMatch means the posterior exceeded the accept threshold.
	IsMatch
	// IsNonMatch means the posterior fell below the reject threshold.
	IsNonMatch
)

// Inference aggregates labels into a posterior and a verdict.
type Inference struct {
	Posterior float64
	Verdict   Verdict
}

// Thresholds are the accept/reject posteriors of §VII-A (0.8 / 0.2).
type Thresholds struct {
	Accept float64
	Reject float64
}

// DefaultThresholds mirrors the paper.
func DefaultThresholds() Thresholds { return Thresholds{Accept: 0.8, Reject: 0.2} }

// Infer computes the posterior match probability of Eq. (17) from the
// labels and prior Pr[m_q], then thresholds it.
//
//	Pr[m_q | W_T, W_F] = Pr[m_q] / (Pr[m_q] + (1−Pr[m_q]) ∏_{w∈W_T} (1−λ)/λ ∏_{w∈W_F} λ/(1−λ))
func Infer(prior float64, labels []Label, th Thresholds) Inference {
	if prior <= 0 {
		prior = 0.01
	}
	if prior >= 1 {
		prior = 0.99
	}
	ratio := 1.0 // ∏ (1−λ)/λ over W_T × ∏ λ/(1−λ) over W_F
	for _, l := range labels {
		lam := l.Quality
		if lam <= 0.5 {
			lam = 0.51 // a worker no better than chance carries no signal
		}
		if lam >= 1 {
			lam = 0.999
		}
		if l.IsMatch {
			ratio *= (1 - lam) / lam
		} else {
			ratio *= lam / (1 - lam)
		}
	}
	post := prior / (prior + (1-prior)*ratio)
	v := Unresolved
	switch {
	case post >= th.Accept:
		v = IsMatch
	case post <= th.Reject:
		v = IsNonMatch
	}
	return Inference{Posterior: post, Verdict: v}
}
