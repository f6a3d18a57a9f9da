package session

import (
	"fmt"
	"sync/atomic"

	"repro/internal/crowd"
	"repro/internal/pair"
)

// persister journals one session's applied answers into a Store. All
// fields except fails are guarded by the owning session's mutex: journal
// only runs with s.mu held.
type persister struct {
	store Store
	id    string
	seq   int   // next delivery sequence number to append
	err   error // sticky first failure; appends stop once set (fail-stop)
	fails *atomic.Int64
}

// journal appends one accepted answer, closing the log when the answer
// finished the session. On a failure the persister goes fail-stop: the
// durable state stays a consistent prefix of the delivery sequence and
// later answers are not journaled (a log with a gap would not replay).
// Callers hold the session mutex.
func (p *persister) journal(s *Session, q pair.Pair, labels []crowd.Label) {
	if p.err != nil {
		return
	}
	rec := AnswerRec{U1: q.U1, U2: q.U2, Labels: FromCrowd(labels)}
	if err := p.store.AppendAnswer(p.id, p.seq, rec, s.loop.Done()); err != nil {
		p.err = fmt.Errorf("session %s: journaling answer %d: %w", p.id, p.seq, err)
		p.fails.Add(1)
		return
	}
	p.seq++
}
