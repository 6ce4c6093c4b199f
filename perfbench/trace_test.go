package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

func TestSelfTimeSubtractsJoinedChildren(t *testing.T) {
	spans := []span{
		// Trace a: gate 0-100 with two overlapping leader spans 10-40 and
		// 30-60 (union 50) and a follower span 90-120 clipped to 90-100.
		{Trace: "a", Layer: "gate", Route: "submit", Start: 0, End: 100},
		{Trace: "a", Layer: "leader", Route: "submit", Start: 10, End: 40},
		{Trace: "a", Layer: "leader", Route: "submit", Start: 30, End: 60},
		{Trace: "a", Layer: "follower", Route: "submit", Start: 90, End: 120},
		// Trace b: a cache hit — no child, all self.
		{Trace: "b", Layer: "gate", Route: "stats", Start: 200, End: 210},
		// A leader span of another trace inside trace b's interval must
		// not count against it.
		{Trace: "c", Layer: "leader", Route: "stats", Start: 202, End: 208},
		// An untraced gate span has nothing to join.
		{Layer: "gate", Route: "stats", Start: 300, End: 305},
	}
	got := selfTimes(spans, "gate", "leader", "follower")
	if s := got["submit"]; s.Calls != 1 || s.BusyNs != 100 || s.SelfNs != 40 {
		t.Errorf("submit: %+v, want 1 call, busy 100, self 100-50-10 = 40", s)
	}
	if s := got["stats"]; s.Calls != 2 || s.BusyNs != 15 || s.SelfNs != 15 {
		t.Errorf("stats: %+v, want 2 calls, busy 15, self 15", s)
	}
}

func TestCoveredNsUnion(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 50, End: 70}, {Start: -10, End: 5}, {Start: 60, End: 80}, {Start: 80, End: 90}, {Start: 200, End: 300}}
	if got := coveredNs(parent, kids); got != 5+40 {
		t.Errorf("covered = %d, want 5 + (50..90) = 45", got)
	}
}

func TestTracedHopsShareTraceID(t *testing.T) {
	tr := newTracer()
	leader := httptest.NewServer(tr.handler("leader", "n1", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	})))
	defer leader.Close()
	// A stand-in gateway: forwards with the trace header, as the real one
	// does through obs.EnsureTrace.
	up := &http.Client{Transport: tr.transport("gate.http", false, http.DefaultTransport)}
	gw := httptest.NewServer(tr.handler("gate", "gate", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequest(r.Method, leader.URL+r.URL.Path, nil)
		req.Header.Set(obs.HeaderTrace, obs.EnsureTrace(r))
		resp, err := up.Do(req)
		if err != nil {
			http.Error(w, err.Error(), 502)
			return
		}
		resp.Body.Close()
		w.Write([]byte("done"))
	})))
	defer gw.Close()
	client := &http.Client{Transport: tr.transport("http.client", true, http.DefaultTransport)}
	for i := 0; i < 3; i++ {
		resp, err := client.Get(gw.URL + "/api/projects/7/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	byTrace := map[string]map[string]bool{}
	for _, s := range tr.snapshot() {
		if s.Route != "stats" {
			t.Errorf("span %+v: route %q, want stats", s, s.Route)
		}
		if byTrace[s.Trace] == nil {
			byTrace[s.Trace] = map[string]bool{}
		}
		byTrace[s.Trace][s.Layer] = true
	}
	if len(byTrace) != 3 {
		t.Fatalf("want 3 distinct trace ids, got %d: %v", len(byTrace), byTrace)
	}
	for id, layers := range byTrace {
		for _, l := range []string{"http.client", "gate", "gate.http", "leader"} {
			if !layers[l] {
				t.Errorf("trace %s has no %s span: %v", id, l, layers)
			}
		}
	}
	self := selfTimes(tr.snapshot(), "gate", "leader")["stats"]
	if self.Calls != 3 || self.SelfNs <= 0 || self.SelfNs >= self.BusyNs {
		t.Errorf("gate self time %+v: want 3 calls and 0 < self < busy", self)
	}
}

func TestRouteOf(t *testing.T) {
	cases := map[[2]string]string{
		{"POST", "/api/projects/3/newtask"}: "request_task",
		{"POST", "/api/projects/3/tasks"}:   "add_tasks",
		{"GET", "/api/projects/3/tasks"}:    "tasks",
		{"GET", "/api/projects/3/stats"}:    "stats",
		{"POST", "/api/tasks/9/runs"}:       "submit",
		{"GET", "/api/tasks/9/runs"}:        "runs",
		{"GET", "/api/repl/stream"}:         "repl",
		{"GET", "/api/healthz"}:             "healthz",
		{"GET", "/metrics"}:                 "admin",
		{"PUT", "/api/projects"}:            "project",
	}
	for in, want := range cases {
		if got := routeOf(in[0], in[1]); got != want {
			t.Errorf("routeOf(%s %s) = %q, want %q", in[0], in[1], got, want)
		}
	}
}
