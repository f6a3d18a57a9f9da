package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/remp"
)

// reportLayers derives the per-layer metrics of a traced serve-* run
// from what the harness can see from outside: /metrics deltas over the
// steady phase, the children's rusage, the data directory, the frame
// relays, and the in-process twin and layer probes.
func (st *serveState) reportLayers(e *env, clustered bool, steady, final scrape, t tally, rec recovery) {
	r := e.report

	// server: handler time by route (server side) and what the wire and
	// the client add on top.
	route := func(name string) (float64, float64) {
		return steady.get(fmt.Sprintf(`remp_http_request_seconds_sum{route=%q}`, name)),
			steady.get(fmt.Sprintf(`remp_http_request_seconds_count{route=%q}`, name))
	}
	for _, name := range []string{"create", "answers", "batch", "result"} {
		s, n := route(name)
		r.set("server.http."+name+"_s", "s", s)
		r.set("server.http."+name+"_n", "count", n)
	}
	if s, n := route("answers"); n > 0 && len(t.acks)+len(t.turns) > 0 {
		clientMean := 0.0
		for _, v := range t.acks {
			clientMean += v
		}
		for _, v := range t.turns {
			clientMean += v
		}
		clientMean /= float64(len(t.acks) + len(t.turns))
		// Means on both sides: the handler histogram has no median.
		r.set("server.ack_wire_ms", "ms", clientMean-1000*s/n)
	}
	failed := 0
	for _, o := range st.outcomes {
		if o.err != nil {
			failed++
		}
	}
	r.set("server.http_errors", "count", float64(failed))
	r.set("server.answers_rejected", "count", steady.get("remp_answers_rejected_total")+final.get("remp_answers_rejected_total"))
	var cpu, rss float64
	for _, s := range st.servers {
		c, m := s.usage()
		cpu += c
		rss = max(rss, m)
	}
	r.set("server.cpu_s", "s", cpu)
	r.set("server.max_rss_mb", "MB", rss)

	// session: store, cache and recovery counters.
	for _, op := range []string{"append", "fsync", "snapshot"} {
		r.set("session.store."+op+"_s", "s", steady.get("remp_store_"+op+"_seconds_sum"))
		r.set("session.store."+op+"_n", "count", steady.get("remp_store_"+op+"_seconds_count"))
	}
	if rec.dirAnswers > 0 {
		r.set("session.wal_bytes_per_answer", "B", float64(rec.dirBytes)/float64(rec.dirAnswers))
	}
	hits, misses := steady.get("remp_cache_hits_total"), steady.get("remp_cache_misses_total")
	r.set("session.cache.hits", "count", hits)
	r.set("session.cache.misses", "count", misses)
	r.set("session.cache.reservations", "count", steady.get("remp_cache_reservations_total"))
	if hits+misses > 0 {
		r.set("session.cache.hit_ratio", "ratio", hits/(hits+misses))
	}
	r.set("session.wal_replayed", "count", rec.replayed)
	r.set("session.recovered", "count", rec.recovered)
	if rec.recovered > 0 && len(rec.seconds) > 0 {
		r.set("session.recover_ms_per_session", "ms", 1000*median(rec.seconds)/rec.recovered)
	}
	r.set("session.persist_failures", "count", steady.get("remp_persist_failures_total")+final.get("remp_persist_failures_total"))

	// deduce.
	r.set("deduce.hits", "count", steady.sum("remp_deduce_hits_total"))
	if t.coldQ+t.coldDeduced > 0 {
		r.set("deduce.saved_ratio", "ratio", float64(t.coldDeduced)/float64(t.coldQ+t.coldDeduced))
	}

	// core / propagation, server side: the loop trace and engine counters
	// the server exports. The loop's wall time is not observable from
	// outside; everything the create and answers handlers spend beyond
	// Prepare stands in for it, so "other" also holds JSON, session
	// locking and the WAL.
	stage := func(name string) float64 {
		return steady.get(fmt.Sprintf(`remp_loop_stage_seconds_sum{stage=%q}`, name))
	}
	covered := 0.0
	for _, name := range []string{"infer", "select", "apply", "reestimate"} {
		r.set("core.loop."+name+"_s", "s", stage(name))
		covered += stage(name)
	}
	createS, _ := route("create")
	answersS, _ := route("answers")
	loopS := createS + answersS - stage("prepare")
	r.set("core.loop_s", "s", loopS)
	r.set("core.loop_other_s", "s", loopS-covered)
	if loopS > 0 {
		r.set("core.loop_covered_ratio", "ratio", covered/loopS)
	}
	r.set("propagation.recomputes", "count", steady.get("remp_engine_recomputes_total"))
	r.set("propagation.rebuilds", "count", steady.get("remp_engine_rebuilds_total"))
	r.set("propagation.invalidations", "count", steady.get("remp_engine_invalidations_total"))

	// cluster.
	r.set("cluster.rpc_retries", "count", final.get("remp_cluster_rpc_retries_total"))
	r.set("cluster.reassignments", "count", final.get("remp_cluster_shard_reassignments_total"))
	r.set("cluster.worker_downs", "count", final.get("remp_cluster_worker_downs_total"))
	if clustered {
		var bytes, frames float64
		var biggest []byte
		for _, rl := range st.relayStats {
			bytes += float64(rl.bytes)
			frames += float64(rl.frames)
			if len(rl.biggest) > len(biggest) {
				biggest = rl.biggest
			}
		}
		r.set("cluster.rpc_bytes_total", "B", bytes)
		if n := float64(len(t.turns)); n > 0 {
			r.set("cluster.rpc_bytes_per_turn", "B", bytes/n)
			r.set("cluster.rpc_frames_per_turn", "count", frames/n)
		}
		r.set("cluster.frame_roundtrip_us", "us", frameRoundtripUS(biggest))
		cpu, rss = 0, 0
		for _, w := range st.workers {
			c, m := w.usage()
			cpu += c
			rss = max(rss, m)
		}
		r.set("cluster.worker_cpu_s", "s", cpu)
		r.set("cluster.worker_max_rss_mb", "MB", rss)
	}

	// In-process twin and layer probes on the run's first spec.
	st.twin(e, !clustered)
	if ds, err := e.specFor("steady", 0, 0).dataset(); err == nil {
		layerProbe(r, e.tracer, ds.K1, ds.K2, e.tmpDir)
	} else {
		r.fail("layer probe: %v", err)
	}
}

// twin drives the first specs' sessions in process — the same pipeline
// and answers through remp.Manager over a disk store and over a memory
// store, no HTTP — timing every Deliver. Disk minus memory is the WAL's
// share of an acknowledgement; the disk twin's loops also run behind the
// timing runner decorator, which is where serve-*'s core.runner.* come
// from.
func (st *serveState) twin(e *env, deduce bool) {
	r := e.report
	n := min(e.sizes.RefSpecs, 4)
	rs := &runnerStats{}
	for _, kind := range []string{"disk", "mem"} {
		var store remp.Store
		if kind == "disk" {
			ds, err := remp.NewDiskStore(filepath.Join(e.tmpDir, "twin-disk"))
			if err != nil {
				r.fail("twin: %v", err)
				return
			}
			store = ds
		} else {
			store = remp.NewMemStore()
		}
		mgr, _, err := remp.OpenManager(store, nil)
		if err != nil {
			r.fail("twin: %v", err)
			return
		}
		var deliverMS []float64
		for i := 0; i < n; i++ {
			sp := e.specFor("steady", 0, i)
			ds, err := sp.dataset()
			if err != nil {
				r.fail("twin: %v", err)
				continue
			}
			l := st.labelers[sp.dsSeed]
			opts := resolveOpts{seed: sp.dsSeed, deduce: deduce, budget: serveBudget}.public()
			if kind == "disk" {
				opts.Runner = timedRunnerFactory(rs)
			}
			traceID := e.tracer.NewTraceID()
			root := e.tracer.Start(traceID, 0, "bench", "twin."+kind)
			sess, err := mgr.NewSession(remp.Dataset{K1: ds.K1, K2: ds.K2}, opts, fmt.Sprintf("twin:%d", sp.dsSeed), []byte("{}"))
			if err != nil {
				r.fail("twin: %v", err)
				continue
			}
			for !sess.Done() {
				batch := sess.NextBatch()
				if len(batch) == 0 {
					r.fail("twin: session stalled")
					break
				}
				q := batch[0]
				labels := l.labels(q.Pair)
				t0 := time.Now()
				id := e.tracer.Start(traceID, root, "session", "session.deliver."+kind)
				err := sess.Deliver(q.ID, labels)
				e.tracer.End(id)
				if err != nil {
					r.fail("twin: deliver: %v", err)
					break
				}
				deliverMS = append(deliverMS, millis(time.Since(t0)))
			}
			e.tracer.End(root)
			if sess.Done() {
				want, ok := st.oracles[sp.dsSeed]
				r.check(ok && string(canonicalResult(ds, sess.Result())) == string(want), "twin (%s) session on d-y seed %d differs from the oracle", kind, sp.dsSeed)
			}
		}
		r.setSamples("session.deliver_"+kind+"_ms_p50", "ms", deliverMS)
		if err := mgr.Close(); err != nil {
			r.fail("twin: closing %s manager: %v", kind, err)
		}
	}
	rs.report(r, float64(n))
}
