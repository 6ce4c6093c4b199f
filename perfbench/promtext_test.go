package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP reprowd_journal_flushes_total Journal flushes.
# TYPE reprowd_journal_flushes_total counter
reprowd_journal_flushes_total 10
reprowd_gate_requests_total{route="write",node="n1"} 4
reprowd_gate_requests_total{route="read",node="f 1"} 6
reprowd_engine_stage_seconds_bucket{le="0.001"} 3
reprowd_engine_stage_seconds_sum 0.25
reprowd_engine_stage_seconds_count 5
reprowd_repl_lag_events 1.5e+01
`

const promAfter = `reprowd_journal_flushes_total 25
reprowd_gate_requests_total{route="write",node="n1"} 9
reprowd_gate_requests_total{route="read",node="f 1"} 6
reprowd_gate_requests_total{route="read",node="f2"} 2
reprowd_engine_stage_seconds_sum 1.25
reprowd_engine_stage_seconds_count 25 1700000000000
reprowd_repl_lag_events 0
`

func TestParsePromAndDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`reprowd_gate_requests_total{route="read",node="f 1"}`]; got != 6 {
		t.Errorf("label value with a space: got %g, want 6", got)
	}
	if got := before["reprowd_repl_lag_events"]; got != 15 {
		t.Errorf("exponent value: got %g, want 15", got)
	}
	d := delta(before, after)
	checks := map[string]float64{
		"reprowd_journal_flushes_total":      15,
		"reprowd_gate_requests_total":        7, // 5 + 0 + 2 (a new series counts from zero)
		"reprowd_engine_stage_seconds_sum":   1,
		"reprowd_engine_stage_seconds_count": 20, // trailing timestamp ignored
		"reprowd_repl_lag_events":            -15,
	}
	for name, want := range checks {
		if got := d.sum(name); got != want {
			t.Errorf("delta %s = %g, want %g", name, got, want)
		}
	}
	// A family sum must not swallow a longer family sharing its prefix.
	if got := after.sum("reprowd_engine_stage_seconds"); got != 0 {
		t.Errorf("family reprowd_engine_stage_seconds matched _sum/_count series: %g", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, in := range []string{"reprowd_x_total\n", "reprowd_x_total abc\n", `reprowd_x{a="b"}` + "\n"} {
		if _, err := parseProm(strings.NewReader(in)); err == nil {
			t.Errorf("parseProm(%q) accepted a line without a numeric value", in)
		}
	}
}
