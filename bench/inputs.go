package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/crowd"
	"repro/internal/datasets"
	"repro/internal/pair"
	"repro/internal/server"
	"repro/internal/session"
	"repro/remp"
)

// Shards is pinned everywhere: "auto" would size shards from the graph
// and GOMAXPROCS-dependent defaults would make a workload host-dependent.
const Shards = 4

// Simulated crowd: three workers per question, each label flipped with
// probability workerError, decided by a pure hash of (seed, pair, worker)
// — loadgen's scheme. Labels therefore depend on nothing but the
// question, which is what makes a served session comparable byte for
// byte with an in-process oracle run, whatever the delivery order.
const (
	crowdWorkers  = 3
	workerQuality = 0.95
	workerError   = 0.10
)

// labeler produces the deterministic crowd labels of one dataset.
type labeler struct {
	seed int64
	gold *pair.Gold
}

func (l labeler) labels(q pair.Pair) []remp.Label {
	out := make([]remp.Label, crowdWorkers)
	truth := l.gold.IsMatch(q)
	for w := range out {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%d|%d", l.seed, q.U1, q.U2, w)
		ans := truth
		if float64(h.Sum64()%1e9)/1e9 < workerError {
			ans = !truth
		}
		out[w] = remp.Label{WorkerID: w, Quality: workerQuality, IsMatch: ans}
	}
	return out
}

// asker adapts a labeler to the blocking Asker remp.Resolve drives.
type asker struct {
	l labeler
	n int
}

func (a *asker) Ask(q pair.Pair) []crowd.Label {
	a.n++
	return session.ToCrowd(a.l.labels(q))
}

func (a *asker) NumQuestions() int { return a.n }

// canonicalResult renders a resolution result in the exact shape the
// server's /result endpoint serves, for byte comparison between reps,
// between traced and untraced paths, and between a served session and
// its in-process oracle.
func canonicalResult(ds *datasets.Dataset, res *remp.Result) []byte {
	dto := server.ResultDTO{
		Done:              true,
		Questions:         res.Questions,
		Deduced:           res.Deduced,
		Loops:             res.Loops,
		Matches:           make([][2]string, 0, len(res.Matches)),
		Confirmed:         len(res.Confirmed),
		Propagated:        len(res.Propagated),
		IsolatedPredicted: len(res.IsolatedPredicted),
		NonMatches:        len(res.NonMatches),
	}
	for _, m := range pair.Set(res.Matches).Sorted() {
		dto.Matches = append(dto.Matches, [2]string{ds.K1.EntityName(m.U1), ds.K2.EntityName(m.U2)})
	}
	prf := remp.Evaluate(res.Matches, ds.Gold)
	dto.PRF = &server.PRFDTO{Precision: prf.Precision, Recall: prf.Recall, F1: prf.F1}
	return canonicalDTO(&dto)
}

// canonicalDTO re-marshals a fetched result for comparison.
func canonicalDTO(dto *server.ResultDTO) []byte {
	if dto.Matches == nil {
		dto.Matches = [][2]string{}
	}
	data, err := json.Marshal(dto)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return data
}

// digest is a short stable fingerprint for failure messages.
func digest(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}
