package cluster

import "repro/internal/obs"

// Metrics are the cluster's observability hooks, wired to the server's
// registry by cmd/remp-server. Every field is optional: obs counters and
// gauges are nil-receiver-safe, so an unwired field (or the zero Metrics)
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
	// ReadFallbacks counts ball reads the shard's last gather could not
	// serve (a short batch's pads), sent as RPCs of their own.
	ReadFallbacks *obs.Counter
}
