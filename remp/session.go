package remp

import "repro/internal/session"

// SessionState names a session's lifecycle state.
type SessionState = session.State

// Session lifecycle states: a session awaits answers until the stop
// criterion holds, then it is done and the result is final.
const (
	// SessionAwaiting means a question batch is published and at least one
	// answer is outstanding.
	SessionAwaiting = session.StateAwaiting
	// SessionDone means the result is final.
	SessionDone = session.StateDone
)

// Question is one published crowd question: a stable wire ID ("u1-u2")
// plus the entity pair it asks about.
type Question = session.Question

// Label is one worker's answer: worker ID, answer quality λ ∈ (0,1] and
// the verdict, as {"worker", "quality", "match"} on the wire. It is the
// pipeline's own crowd.Label, so an Asker's labels and a session's are
// one type.
type Label = session.Label

// Session is an asynchronous resolution job: the paper's human–machine
// loop inverted into a pull/push state machine. NextBatch publishes the
// current µ-question batch; Deliver accepts the crowd's answers in any
// order; once a batch drains the loop advances (propagation sync,
// confirm/detach, re-estimation, padding, stop criterion) exactly as the
// synchronous Resolve would. Sessions are safe for concurrent use and
// survive process restarts through Snapshot (JSON bytes) and
// RestoreSession. DeliverPair is Deliver for in-process callers that
// already hold the pair and pipeline labels.
type Session = session.Session

// NewSession prepares the pipeline and starts a standalone session over
// it, with the ID "session". Use Manager.NewSession instead when several
// sessions should share crowd answers.
func NewSession(ds Dataset, opts Options) (*Session, error) {
	p, err := PreparePipeline(ds, opts)
	if err != nil {
		return nil, err
	}
	return session.New("session", p, nil), nil
}

// RestoreSession rebuilds a session from a Snapshot by re-preparing the
// pipeline from the same dataset and options and replaying the answer
// log. A snapshot replayed against a different dataset or configuration
// fails with a divergence error, and a shard runner that cannot start
// fails it with the runner's error.
func RestoreSession(ds Dataset, opts Options, snapshot []byte) (*Session, error) {
	snap, err := session.DecodeSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	p, err := PreparePipeline(ds, opts)
	if err != nil {
		return nil, err
	}
	return session.Restore(p, nil, snap)
}
