package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// metricDef names one metric of the JSON result line.
type metricDef struct {
	name, unit string
	bound      float64 // end-to-end only: allowed regression, share of median
}

// endToEnd are the metrics every untraced run reports on its last line,
// whatever the workload; BENCHMARK.json lists the same names. Each
// workload fills them from its own main operation (README.md, "Gated
// metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"answers_per_s", "1/s", 0.25},
	{"p50_ms", "ms", 0.25},
}

// reportBounds are the regression bounds repeat mode applies to the
// workload-specific metrics of the human-readable report.
var reportBounds = map[string]float64{
	"verdicts_per_s": 0.25, "rerun_s": 0.25, "recover_s": 0.25, "bootstrap_s": 0.25,
	"disk_bytes_per_answer": 0.1,
}

func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.name == name {
			return m.bound
		}
	}
	if b, ok := reportBounds[name]; ok {
		return b
	}
	if strings.HasSuffix(name, "_ms") {
		return 0.25
	}
	return 0
}

// layerDef is one per-layer metric and the end-to-end metric it should
// move, on which workload.
type layerDef struct {
	name, unit, moves string
	json              bool // also on the traced run's JSON line
}

// metricOut and result are the JSON line's shape.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// repLine is one line of the human-readable report.
type repLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// runOut is everything one run of a workload produced.
type runOut struct {
	gate      map[string]float64 // the endToEnd metrics
	report    []repLine          // the workload's own metrics, by the names the README uses
	layer     map[string]float64 // per-layer metrics (traced runs)
	attempted int
	failed    int
	problems  []string // failed correctness checks
}

func newRunOut() *runOut {
	return &runOut{gate: map[string]float64{}, layer: map[string]float64{}}
}

func (o *runOut) add(name string, v float64, unit, note string) {
	o.report = append(o.report, repLine{name, v, unit, note})
}

// addLatency reports samples (durations) as name_p50_ms and name_p99_ms,
// with the sample counts that make the tail trustworthy or not.
func (o *runOut) addLatency(name string, samples []time.Duration) {
	ms := toMs(samples)
	p50, p99 := percentile(ms, 50), percentile(ms, 99)
	o.add(name+"_p50_ms", p50.Value, "ms", fmt.Sprintf("n=%d", p50.N))
	note := fmt.Sprintf("n=%d, %d beyond", p99.N, p99.Beyond)
	if !p99.OK {
		hp := highestPercentile(ms)
		note += fmt.Sprintf(" (too few; highest trustworthy is p%g = %.4g ms)", hp.P, hp.Value)
	}
	o.add(name+"_p99_ms", p99.Value, "ms", note)
}

func (o *runOut) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func toMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func (o *runOut) print(title string) {
	fmt.Printf("-- %s\n", title)
	for _, l := range o.report {
		fmt.Printf("  %-28s %14.6g %-6s %s\n", l.name, l.value, l.unit, l.note)
	}
	for _, m := range endToEnd {
		fmt.Printf("  gated %-22s %14.6g %-6s\n", m.name, o.gate[m.name], m.unit)
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("  %-28s %14.6g %-6s %d of %d client operations failed\n", "error_rate", errRate, "1", o.failed, o.attempted)
}

// printLayers prints every per-layer metric with what it should move.
func (o *runOut) printLayers(workload string) {
	fmt.Printf("-- per-layer (traced run of %s)\n", workload)
	for _, d := range layerCatalog {
		v, ok := o.layer[d.name]
		val := "n/a"
		if ok {
			val = fmt.Sprintf("%.6g", v)
		}
		fmt.Printf("  %-38s %14s %-8s -> %s\n", d.name, val, d.unit, d.moves)
	}
}

// addOverhead records how much slower the traced run was than the
// untraced one on the two gated rates.
func (o *runOut) addOverhead(plain *runOut) {
	slow := func(traced, untraced float64, higherBetter bool) float64 {
		if traced == 0 || untraced == 0 {
			return 0
		}
		if higherBetter {
			return untraced/traced - 1
		}
		return traced/untraced - 1
	}
	o.layer["trace.overhead_frac"] = math.Max(
		slow(o.gate["answers_per_s"], plain.gate["answers_per_s"], true),
		slow(o.gate["p50_ms"], plain.gate["p50_ms"], false))
}

// layerCatalog is every per-layer metric a traced run prints, with the
// end-to-end metric it should move and on which workload. Those with
// json set are also on the JSON line (BENCHMARK.json per_layer): every
// count and ratio, and the times that every workload measures. The
// other times read zero on some workload by construction (README.md
// lists them), so they stay in the printed table.
var layerCatalog = func() []layerDef {
	const (
		moveDist   = "verdicts_per_s @ join4"
		moveClient = "verdicts_per_s, verdict_lag_p50_ms @ join4; read_p50_ms @ monitor; flat @ recover"
		moveGate   = "read_p50_ms, read_p99_ms @ monitor; submit_p50_ms @ join4"
		moveLeader = "verdicts_per_s @ join4 (the slowest shard sets the drain); submit_p50_ms @ join4, monitor"
		moveEngine = "submit_p50_ms, request_p50_ms @ join4, monitor"
		moveJrnl   = "submit_p99_ms, verdicts_per_s @ join4"
		moveStore  = "submit_p99_ms @ join4, monitor; disk_bytes_per_answer @ recover"
		moveSnap   = "recover_s, bootstrap_s, disk_bytes_per_answer @ recover; submit_p99_ms @ join4"
		moveRepl   = "bootstrap_s, recover_s @ recover; read_p99_ms @ monitor"
		moveCore   = "rerun_s @ join4"
		moveQual   = "verdict_lag_p99_ms, distops.drain_s @ join4"
		moveLoad   = "validity of the run, not a target"
	)
	defs := []layerDef{
		{"distops.publish_s", "s", moveDist, false},
		{"distops.answer_s", "s", moveDist, false},
		{"distops.drain_s", "s", moveDist, false},
	}
	for _, op := range []string{"add_tasks", "request_task", "submit", "tasks", "runs", "stats"} {
		defs = append(defs,
			layerDef{"client." + op + ".calls", "count", moveClient, true},
			layerDef{"client." + op + ".busy_s", "s", moveClient, false},
			layerDef{"client." + op + ".errors", "count", moveClient, true})
	}
	defs = append(defs, []layerDef{
		{"client.tasks.per_verdict", "calls/answer", moveClient, true},
		{"client.runs.per_verdict", "calls/answer", moveClient, true},
		{"client.http.resp_bytes_per_verdict", "B/answer", moveClient, true},
		{"client.http.req_bytes_per_verdict", "B/answer", moveClient, true},
		{"gate.requests", "count", moveGate, true},
		{"gate.busy_s", "s", moveGate, false},
		{"gate.self_s", "s", moveGate, false},
		{"gate.cache_hit_ratio", "ratio", moveGate, true},
		{"gate.follower_read_share", "ratio", moveGate, true},
		{"gate.retries", "count", moveGate, true},
		{"leader.busy_s", "s", moveLeader, false},
		{"leader.busy_max_over_mean", "ratio", moveLeader, true},
		{"leader.submit.self_s_mean", "s", moveLeader, false},
		{"leader.request_task.self_s_mean", "s", moveLeader, false},
		{"leader.tasks.self_s_mean", "s", moveLeader, false},
		{"leader.runs.self_s_mean", "s", moveLeader, false},
		{"engine.stage_s_per_submit", "s/submit", moveEngine, true},
		{"engine.flush_wait_s_per_submit", "s/submit", moveEngine, true},
		{"engine.finalize_s_per_submit", "s/submit", moveEngine, true},
		{"sched.acquire_s_per_request", "s/request", moveEngine, true},
		{"journal.flushes", "count", moveJrnl, true},
		{"journal.events_per_flush", "events/flush", moveJrnl, true},
		{"journal.commit_s_per_flush", "s/flush", moveJrnl, true},
		{"storage.fsyncs_per_answer", "fsyncs/answer", moveStore, true},
		{"storage.fsync_s_per_answer", "s/answer", moveStore, true},
		{"storage.bytes_written_per_answer", "B/answer", moveStore, true},
		{"storage.compact_s", "s", moveStore, false},
		{"core.db.bytes_written_per_answer", "B/answer", moveStore, true},
		{"snapshot.checkpoints", "count", moveSnap, true},
		{"snapshot.cut_s", "s", moveSnap, false},
		{"snapshot.bytes_per_journal_byte", "ratio", moveSnap, true},
		{"repl.bootstrap_bytes", "B", moveRepl, true},
		{"repl.tail_events", "events", moveRepl, true},
		{"recover.replayed_events", "events", moveRepl, true},
		{"repl.lag_events_p99", "events", moveRepl, true},
		{"repl.stream_polls_per_event", "polls/event", moveRepl, true},
		{"core.rerun.client_calls", "count", moveCore, true},
		{"quality.observe_us_per_vote", "us/vote", moveQual, false},
		{"quality.finalize_s", "s", moveQual, false},
		{"loadgen.late_p99_ms", "ms", moveLoad, false},
		{"loadgen.inflight_max", "count", moveLoad, true},
		{"trace.overhead_frac", "ratio", moveLoad, true},
	}...)
	return defs
}()

// higherIsBetter names the per-layer metrics where a rise is good news:
// work done in the fixed run time, and how well batching, caching and
// replica reads pay off. Every other per-layer metric is a cost.
var higherIsBetter = map[string]bool{
	"client.add_tasks.calls":    true,
	"client.request_task.calls": true,
	"client.submit.calls":       true,
	"gate.cache_hit_ratio":      true,
	"gate.follower_read_share":  true,
	"journal.events_per_flush":  true,
}

// perLayer is the JSON subset of layerCatalog.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, d := range layerCatalog {
		if d.json {
			out = append(out, metricDef{name: d.name, unit: d.unit})
		}
	}
	return out
}()
