package main

import (
	"errors"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/storage"
)

// span is one timed crossing of a layer boundary. Spans of one request
// share Trace: the benchmark's transport stamps the id on the way out
// and the gateway forwards it to the node it relays to.
type span struct {
	Trace      string `json:"trace,omitempty"`
	Layer      string `json:"layer"` // "gate", "leader", "follower", "http.client", ...
	Node       string `json:"node,omitempty"`
	Route      string `json:"route"`
	Start, End int64  `json:"-"` // ns since the tracer's epoch
	ReqBytes   int64  `json:"req_bytes,omitempty"`
	RespBytes  int64  `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: no wrapper is installed and nothing is recorded.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// routeOf names the platform operation a request performs, so spans of
// different layers can be grouped the same way.
func routeOf(method, path string) string {
	p := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(p) >= 2 && p[0] == "api" && p[1] == "repl":
		return "repl"
	case path == "/api/healthz":
		return "healthz"
	case path == "/metrics" || path == "/api/stats" || strings.HasPrefix(path, "/api/gate/"):
		return "admin"
	case len(p) == 4 && p[1] == "projects" && p[3] == "newtask":
		return "request_task"
	case len(p) == 4 && p[1] == "projects" && p[3] == "tasks" && method == http.MethodPost:
		return "add_tasks"
	case len(p) == 4 && p[1] == "projects" && p[3] == "tasks":
		return "tasks"
	case len(p) == 4 && p[1] == "projects" && p[3] == "stats":
		return "stats"
	case len(p) == 4 && p[1] == "tasks" && p[3] == "runs" && method == http.MethodPost:
		return "submit"
	case len(p) == 4 && p[1] == "tasks" && p[3] == "runs":
		return "runs"
	case len(p) >= 2 && p[1] == "projects":
		return "project"
	}
	return "other"
}

// handler times every request h serves as a span of layer on node.
// Metric scrapes are not timed: they are the benchmark reading counters,
// not load.
func (t *tracer) handler(layer, node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r.Method, r.URL.Path)
		if route == "admin" {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Trace: obs.TraceID(r), Layer: layer, Node: node, Route: route,
			Start: start, End: t.now(), ReqBytes: r.ContentLength})
	})
}

// transport times every round trip through base as a span of layer,
// counting request and response body bytes. With stamp set it gives
// requests that carry no trace id a fresh one, so the gateway and node
// spans of the same request can be joined to each other.
func (t *tracer) transport(layer string, stamp bool, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		route := routeOf(req.Method, req.URL.Path)
		if route == "admin" {
			return base.RoundTrip(req)
		}
		if stamp && req.Header.Get(obs.HeaderTrace) == "" {
			req = req.Clone(req.Context())
			req.Header.Set(obs.HeaderTrace, "pb"+strconv.FormatUint(t.ids.Add(1), 36))
		}
		s := span{Trace: req.Header.Get(obs.HeaderTrace), Layer: layer, Node: req.URL.Host,
			Route: route, Start: t.now()}
		if req.ContentLength > 0 {
			s.ReqBytes = req.ContentLength
		}
		resp, err := base.RoundTrip(req)
		if err != nil {
			s.End = t.now()
			t.add(s)
			return nil, err
		}
		resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
			s.End, s.RespBytes = t.now(), n
			t.add(s)
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingBody counts a response body's bytes and reports the total once,
// when the reader closes it.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// layerTime sums the spans of one layer, route by route.
type layerTime struct {
	Calls  int
	BusyNs int64
	SelfNs int64
}

// selfTimes totals the spans of parentLayer per route: busy time, and
// self time — each span minus the part of its interval covered by spans
// of childLayers that share its trace id.
func selfTimes(spans []span, parentLayer string, childLayers ...string) map[string]layerTime {
	isChild := map[string]bool{}
	for _, l := range childLayers {
		isChild[l] = true
	}
	children := map[string][]span{}
	for _, s := range spans {
		if isChild[s.Layer] && s.Trace != "" {
			children[s.Trace] = append(children[s.Trace], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		if s.Layer != parentLayer {
			continue
		}
		lt := out[s.Route]
		lt.Calls++
		lt.BusyNs += s.dur()
		covered := int64(0)
		if s.Trace != "" {
			covered = coveredNs(s, children[s.Trace])
		}
		lt.SelfNs += s.dur() - covered
		out[s.Route] = lt
	}
	return out
}

// coveredNs is how much of parent's interval the union of kids covers.
func coveredNs(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := int64(0), int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// opStats is the client seam's account of one platform operation.
type opStats struct {
	Calls, Errors int
	BusyNs        int64
}

// countingClient wraps the platform.Client the benchmark hands to the
// program, counting calls, failures and time per operation. ErrNoTask is
// an answer, not a failure.
type countingClient struct {
	platform.Client
	mu  sync.Mutex
	ops map[string]*opStats
}

func newCountingClient(c platform.Client) *countingClient {
	return &countingClient{Client: c, ops: map[string]*opStats{}}
}

func (c *countingClient) note(op string, start time.Time, err error) {
	d := time.Since(start)
	c.mu.Lock()
	s := c.ops[op]
	if s == nil {
		s = &opStats{}
		c.ops[op] = s
	}
	s.Calls++
	s.BusyNs += int64(d)
	if err != nil && !errors.Is(err, platform.ErrNoTask) {
		s.Errors++
	}
	c.mu.Unlock()
}

// stats copies the per-operation counters.
func (c *countingClient) stats() map[string]opStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]opStats, len(c.ops))
	for k, v := range c.ops {
		out[k] = *v
	}
	return out
}

// totals sums calls and errors across operations.
func (c *countingClient) totals() (calls, errs int) {
	for _, s := range c.stats() {
		calls += s.Calls
		errs += s.Errors
	}
	return calls, errs
}

func (c *countingClient) EnsureProject(spec platform.ProjectSpec) (platform.Project, error) {
	t := time.Now()
	p, err := c.Client.EnsureProject(spec)
	c.note("ensure_project", t, err)
	return p, err
}

func (c *countingClient) FindProject(name string) (platform.Project, bool, error) {
	t := time.Now()
	p, ok, err := c.Client.FindProject(name)
	c.note("find_project", t, err)
	return p, ok, err
}

func (c *countingClient) AddTasks(projectID int64, specs []platform.TaskSpec) ([]platform.Task, error) {
	t := time.Now()
	ts, err := c.Client.AddTasks(projectID, specs)
	c.note("add_tasks", t, err)
	return ts, err
}

func (c *countingClient) RequestTask(projectID int64, workerID string) (platform.Task, error) {
	t := time.Now()
	task, err := c.Client.RequestTask(projectID, workerID)
	c.note("request_task", t, err)
	return task, err
}

func (c *countingClient) Submit(taskID int64, workerID, answer string) (platform.TaskRun, error) {
	t := time.Now()
	r, err := c.Client.Submit(taskID, workerID, answer)
	c.note("submit", t, err)
	return r, err
}

func (c *countingClient) Tasks(projectID int64) ([]platform.Task, error) {
	t := time.Now()
	ts, err := c.Client.Tasks(projectID)
	c.note("tasks", t, err)
	return ts, err
}

func (c *countingClient) Runs(taskID int64) ([]platform.TaskRun, error) {
	t := time.Now()
	rs, err := c.Client.Runs(taskID)
	c.note("runs", t, err)
	return rs, err
}

func (c *countingClient) Stats(projectID int64) (platform.ProjectStats, error) {
	t := time.Now()
	s, err := c.Client.Stats(projectID)
	c.note("stats", t, err)
	return s, err
}

func (c *countingClient) BanWorker(projectID int64, workerID string) error {
	t := time.Now()
	err := c.Client.BanWorker(projectID, workerID)
	c.note("ban_worker", t, err)
	return err
}

// countFS is the production storage.FileOps with every segment write and
// fsync counted and timed — the storage layer seen from below.
type countFS struct {
	bytes, syncs, syncNs atomic.Int64
}

func (f *countFS) OpenWrite(path string) (storage.SegmentFile, error) {
	return f.open(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
}

func (f *countFS) OpenTrunc(path string) (storage.SegmentFile, error) {
	return f.open(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
}

func (f *countFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (f *countFS) open(path string, flag int) (storage.SegmentFile, error) {
	file, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f}, nil
}

type countFile struct {
	*os.File
	fs *countFS
}

func (c *countFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.fs.bytes.Add(int64(n))
	return n, err
}

func (c *countFile) Sync() error {
	t := time.Now()
	err := c.File.Sync()
	c.fs.syncs.Add(1)
	c.fs.syncNs.Add(int64(time.Since(t)))
	return err
}
