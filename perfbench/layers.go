package main

import (
	"net/http"

	"repro/internal/core"
)

// probe is the state of every counter the benchmark reads, taken at one
// instant; two probes bracket the timed part of a run.
type probe struct {
	at      int64 // tracer clock, ns
	clients map[string]opStats
	nodes   []*node
	prom    map[*node]series
	fs      map[*node][3]int64 // bytes written, fsyncs, fsync ns
	gate    series
	ctxDB   int64 // the context database's bytes on disk
}

var scrapeClient = &http.Client{}

// takeProbe reads the counters; untraced runs (tr nil) read nothing,
// since nothing would be reported.
func takeProbe(tr *tracer, clients []*countingClient, nodes []*node, gw *gateway, cc *core.CrowdContext) (probe, error) {
	p := probe{clients: map[string]opStats{}, nodes: nodes, prom: map[*node]series{}, fs: map[*node][3]int64{}}
	if tr == nil {
		return p, nil
	}
	p.at = tr.now()
	for _, c := range clients {
		for op, s := range c.stats() {
			acc := p.clients[op]
			acc.Calls += s.Calls
			acc.Errors += s.Errors
			acc.BusyNs += s.BusyNs
			p.clients[op] = acc
		}
	}
	for _, n := range nodes {
		s, err := scrape(scrapeClient, n.url())
		if err != nil {
			return p, err
		}
		p.prom[n] = s
		if n.fs != nil {
			p.fs[n] = [3]int64{n.fs.bytes.Load(), n.fs.syncs.Load(), n.fs.syncNs.Load()}
		}
	}
	if gw != nil {
		s, err := scrape(scrapeClient, gw.url())
		if err != nil {
			return p, err
		}
		p.gate = s
	}
	if cc != nil {
		p.ctxDB = cc.DB().Stats().TotalBytes
	}
	return p, nil
}

// nodeDelta sums, over the nodes of one role, the change of a series
// family between two probes.
func nodeDelta(p0, p1 probe, role, family string) float64 {
	total := 0.0
	for _, n := range p1.nodes {
		if n.role == role {
			total += p1.prom[n].sum(family) - p0.prom[n].sum(family)
		}
	}
	return total
}

// histMean is the mean of a histogram family's observations between two
// probes, over the leaders (seconds).
func histMean(p0, p1 probe, family string) float64 {
	return ratio(nodeDelta(p0, p1, "leader", family+"_sum"), nodeDelta(p0, p1, "leader", family+"_count"))
}

// clusterLayers fills the per-layer metrics every gated cluster shares,
// from the spans and counters between p0 and p1. answers is the run's
// count of useful outcomes (acknowledged answers).
func clusterLayers(o *runOut, tr *tracer, p0, p1 probe, answers float64) {
	// Spans that start inside the window: a replication long poll may
	// outlive it.
	var spans []span
	for _, s := range tr.snapshot() {
		if s.Start >= p0.at && s.Start <= p1.at {
			spans = append(spans, s)
		}
	}
	L := o.layer

	// platform.client: the seam under the program and the generator.
	for _, op := range []string{"add_tasks", "request_task", "submit", "tasks", "runs", "stats"} {
		s1, s0 := p1.clients[op], p0.clients[op]
		L["client."+op+".calls"] = float64(s1.Calls - s0.Calls)
		L["client."+op+".busy_s"] = float64(s1.BusyNs-s0.BusyNs) / 1e9
		L["client."+op+".errors"] = float64(s1.Errors - s0.Errors)
	}
	L["client.tasks.per_verdict"] = ratio(L["client.tasks.calls"], answers)
	L["client.runs.per_verdict"] = ratio(L["client.runs.calls"], answers)
	var reqB, respB float64
	for _, s := range spans {
		if s.Layer == "http.client" {
			reqB += float64(s.ReqBytes)
			respB += float64(s.RespBytes)
		}
	}
	L["client.http.req_bytes_per_verdict"] = ratio(reqB, answers)
	L["client.http.resp_bytes_per_verdict"] = ratio(respB, answers)

	// gate: spans of the gateway's handler, self time net of the node
	// spans they caused.
	var gReq, gBusy, gSelf float64
	for route, lt := range selfTimes(spans, "gate", "leader", "follower") {
		if route == "healthz" || route == "repl" {
			continue
		}
		gReq += float64(lt.Calls)
		gBusy += float64(lt.BusyNs) / 1e9
		gSelf += float64(lt.SelfNs) / 1e9
	}
	L["gate.requests"], L["gate.busy_s"], L["gate.self_s"] = gReq, gBusy, gSelf
	if p1.gate != nil {
		d := delta(p0.gate, p1.gate)
		hits, misses := d.sum("reprowd_gate_cache_hits_total"), d.sum("reprowd_gate_cache_misses_total")
		L["gate.cache_hit_ratio"] = ratio(hits, hits+misses)
		fr, lr := d.sum("reprowd_gate_reads_follower_total"), d.sum("reprowd_gate_reads_leader_total")
		L["gate.follower_read_share"] = ratio(fr, fr+lr)
		L["gate.retries"] = d.sum("reprowd_gate_retries_total")
	}

	// platform.server: leader handler spans (the replication stream and
	// health probes are not request work).
	busy := map[string]float64{}
	route := map[string][2]float64{} // route -> {total s, calls}
	for _, s := range spans {
		if s.Layer != "leader" || s.Route == "repl" || s.Route == "healthz" {
			continue
		}
		busy[s.Node] += float64(s.dur()) / 1e9
		r := route[s.Route]
		route[s.Route] = [2]float64{r[0] + float64(s.dur())/1e9, r[1] + 1}
	}
	var sum, peak float64
	leaders := 0
	for _, n := range p1.nodes {
		if n.role == "leader" {
			leaders++
			sum += busy[n.name]
			peak = max(peak, busy[n.name])
		}
	}
	L["leader.busy_s"] = sum
	L["leader.busy_max_over_mean"] = ratio(peak, sum/float64(max(leaders, 1)))
	for _, r := range []string{"submit", "request_task", "tasks", "runs"} {
		L["leader."+r+".self_s_mean"] = ratio(route[r][0], route[r][1])
	}

	// engine / sched / journal / snapshot: the nodes' own counters.
	L["engine.stage_s_per_submit"] = histMean(p0, p1, "reprowd_engine_stage_seconds")
	L["engine.flush_wait_s_per_submit"] = histMean(p0, p1, "reprowd_engine_flush_wait_seconds")
	L["engine.finalize_s_per_submit"] = histMean(p0, p1, "reprowd_engine_finalize_seconds")
	L["sched.acquire_s_per_request"] = histMean(p0, p1, "reprowd_sched_acquire_seconds")
	flushes := nodeDelta(p0, p1, "leader", "reprowd_journal_flushes_total")
	L["journal.flushes"] = flushes
	L["journal.events_per_flush"] = ratio(nodeDelta(p0, p1, "leader", "reprowd_journal_flushed_events_total"), flushes)
	L["journal.commit_s_per_flush"] = histMean(p0, p1, "reprowd_journal_commit_seconds")
	L["snapshot.checkpoints"] = nodeDelta(p0, p1, "leader", "reprowd_snapshot_checkpoints_total")
	L["snapshot.cut_s"] = nodeDelta(p0, p1, "leader", "reprowd_snapshot_cut_seconds_sum")
	var snapB, journalB float64
	for _, n := range p1.nodes {
		if n.role == "leader" {
			if st := n.engine.PlatformStats().Snapshot; st != nil {
				snapB += float64(st.LastBytes)
				journalB += float64(st.BytesReclaimed)
			}
		}
	}
	L["snapshot.bytes_per_journal_byte"] = ratio(snapB, journalB)

	// storage: the counting FileOps under each leader's store.
	var wrote, syncs, syncNs float64
	for _, n := range p1.nodes {
		if n.fs != nil {
			a, b := p0.fs[n], p1.fs[n]
			wrote += float64(b[0] - a[0])
			syncs += float64(b[1] - a[1])
			syncNs += float64(b[2] - a[2])
		}
	}
	L["storage.fsyncs_per_answer"] = ratio(syncs, answers)
	L["storage.fsync_s_per_answer"] = ratio(syncNs/1e9, answers)
	L["storage.bytes_written_per_answer"] = ratio(wrote, answers)
	L["storage.compact_s"] = nodeDelta(p0, p1, "leader", "reprowd_storage_compact_seconds_sum")

	// repl: the followers' stream polls against the events they carried.
	polls := 0.0
	for _, s := range spans {
		if s.Layer == "follower.http" && s.Route == "repl" {
			polls++
		}
	}
	L["repl.stream_polls_per_event"] = ratio(polls, nodeDelta(p0, p1, "leader", "reprowd_repl_streamed_events_total"))
}
