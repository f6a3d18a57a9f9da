package cluster

import "repro/internal/obs"

// Metrics are the cluster's observability hooks, wired to the server's
// registry by cmd/remp-server. Every field is optional: obs counters and
// gauges are nil-receiver-safe, so an unwired Metrics (or a nil *Metrics)
// records nothing.
type Metrics struct {
	// WorkersLive tracks the number of workers currently considered live.
	WorkersLive *obs.Gauge
	// WorkerDowns counts transitions of a worker from live to down.
	WorkerDowns *obs.Counter
	// RPCRetries counts RPC attempts retried after a transport failure.
	RPCRetries *obs.Counter
	// Reassignments counts shards re-prepared on a different worker after
	// their owner was lost.
	Reassignments *obs.Counter
	// ReadFallbacks counts rank and ball reads the shard's last gather
	// could not serve, sent as RPCs of their own.
	ReadFallbacks *obs.Counter
}

func (m *Metrics) workersLive() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.WorkersLive
}

func (m *Metrics) workerDowns() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.WorkerDowns
}

func (m *Metrics) rpcRetries() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.RPCRetries
}

func (m *Metrics) reassignments() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Reassignments
}

func (m *Metrics) readFallbacks() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.ReadFallbacks
}
