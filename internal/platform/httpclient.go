package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/vclock"
)

// HTTPClient implements Client against a Server over real HTTP. Reprowd's
// core never knows whether it is talking to an in-process Engine or to a
// remote platform through this client; experiment E8 measures the cost of
// the wire and the semantic equivalence of the two bindings.
//
// Requests carry a timeout and transient failures — connection errors and
// 502/503/504 responses — are retried with exponential backoff, so a
// brief server restart (a leader bouncing, a follower being promoted)
// looks like latency, not an error. Retries are safe against this API:
// GETs are read-only, EnsureProject/AddTasks are idempotent by design
// (name / ExternalID dedup), and a replayed Submit whose first attempt
// actually landed is rejected as a duplicate answer by the engine rather
// than double-counted.
//
// In Gateway mode (HTTPClientOptions.Gateway, for a client pointed at a
// reprowd-gate instead of a single server) the client additionally speaks
// the routing-hint protocol: it remembers the HeaderShardKey value echoed
// on each project- or task-scoped response and replays it on later
// requests for the same project or task, so the gateway can route every
// request with one ring lookup — including Submit, where only the client
// knows which project a task id belongs to. Everything else is unchanged;
// a gateway serves the exact same REST surface as a single server, so
// reprowd.Context works against N ring-partitioned nodes without
// modification.
type HTTPClient struct {
	base string
	hc   *http.Client
	opts HTTPClientOptions

	// Gateway-mode routing hints: scope ("p/<id>" or "t/<id>") → echoed
	// shard key, nil unless opts.Gateway.
	mu        sync.Mutex
	routeKeys map[string]string
}

// maxRouteKeys bounds the gateway-mode hint cache; at the cap the cache
// resets (hints are an optimization — the gateway re-discovers routes
// without them).
const maxRouteKeys = 1 << 16

// HTTPClientOptions tune the client's timeout/retry behavior. The zero
// value gets the defaults below.
type HTTPClientOptions struct {
	// Timeout bounds one request attempt end to end. Defaults to 30s;
	// negative disables it. Ignored when NewHTTPClientOpts is given an
	// *http.Client that already sets its own timeout.
	Timeout time.Duration
	// MaxRetries is how many times a failed request is retried beyond the
	// first attempt. Defaults to 3; negative disables retries.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling each
	// attempt. Defaults to 100ms.
	RetryBackoff time.Duration
	// Gateway enables the routing-hint protocol for clients pointed at a
	// ring-routed gateway (internal/gate): shard keys echoed by the
	// platform (HeaderShardKey) are cached per task/project and replayed
	// on subsequent requests.
	Gateway bool
	// Clock paces the retry backoff sleeps. Nil defaults to wall time; a
	// simulated cluster injects its vclock.Sim so retries elapse in
	// virtual time.
	Clock vclock.Clock
	// Rand jitters each backoff by ±25% so a fleet of clients retrying a
	// bounced leader does not arrive in lockstep. Nil disables jitter
	// (the schedule is then the bare doubling sequence); inject a
	// vclock.SeededRand for a retry schedule reproducible from a seed.
	Rand vclock.Rand
}

func (o HTTPClientOptions) withDefaults() HTTPClientOptions {
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = vclock.NewWall()
	}
	return o
}

var _ Client = (*HTTPClient)(nil)

// NewHTTPClient returns a client for the server at baseURL (e.g.
// "http://localhost:7000") with default timeout/retry behavior. A nil hc
// builds a private http.Client.
func NewHTTPClient(baseURL string, hc *http.Client) *HTTPClient {
	return NewHTTPClientOpts(baseURL, hc, HTTPClientOptions{})
}

// NewHTTPClientOpts is NewHTTPClient with explicit timeout/retry tuning.
// A non-nil hc is used as given (its transport, cookies, redirects); if
// it sets no timeout of its own, a copy with opts.Timeout is used so the
// caller's client is never mutated.
func NewHTTPClientOpts(baseURL string, hc *http.Client, opts HTTPClientOptions) *HTTPClient {
	opts = opts.withDefaults()
	if hc == nil {
		hc = &http.Client{}
	}
	if hc.Timeout == 0 && opts.Timeout > 0 {
		cp := *hc
		cp.Timeout = opts.Timeout
		hc = &cp
	}
	c := &HTTPClient{base: strings.TrimRight(baseURL, "/"), hc: hc, opts: opts}
	if opts.Gateway {
		c.routeKeys = make(map[string]string)
	}
	return c
}

// NewGatewayHTTPClient returns a client for the ring-routed gateway at
// baseURL, with the routing-hint protocol enabled (see
// HTTPClientOptions.Gateway).
func NewGatewayHTTPClient(baseURL string, hc *http.Client) *HTTPClient {
	return NewHTTPClientOpts(baseURL, hc, HTTPClientOptions{Gateway: true})
}

// learnRoute caches scope → shard key (gateway mode only).
func (c *HTTPClient) learnRoute(scope, key string) {
	if c.routeKeys == nil || scope == "" || key == "" {
		return
	}
	c.mu.Lock()
	if len(c.routeKeys) >= maxRouteKeys {
		c.routeKeys = make(map[string]string)
	}
	c.routeKeys[scope] = key
	c.mu.Unlock()
}

// routeHint returns the cached shard key for scope ("" when unknown or
// not in gateway mode).
func (c *HTTPClient) routeHint(scope string) string {
	if c.routeKeys == nil || scope == "" {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routeKeys[scope]
}

// Route scopes for the gateway-mode hint cache.
func projScope(id int64) string { return "p/" + strconv.FormatInt(id, 10) }
func taskScope(id int64) string { return "t/" + strconv.FormatInt(id, 10) }

// RetryableStatus reports whether an HTTP status indicates a transient
// server condition worth retrying: a proxy failing to reach a bouncing
// backend (502/504) or an explicit "try again" (503). Other 5xx are not
// retried — a 500 means the request was processed and failed. Exported
// so the gateway retries on exactly the set clients retry on — if the
// two disagreed, an error one layer considers transient would be final
// to the other.
func RetryableStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// do performs a request and decodes the JSON response into out (when out is
// non-nil), translating wire error codes back into platform sentinel errors.
// Transient failures are retried up to opts.MaxRetries times with doubling
// backoff; each attempt rebuilds the request body from scratch.
//
// scope names the project/task the request is about (for the gateway-mode
// hint cache; "" when there is none). The returned key is the shard key
// the server echoed ("" outside gateway mode), already cached under
// scope — callers only need it to learn additional scopes (e.g. the tasks
// an AddTasks response created).
func (c *HTTPClient) do(method, path string, body, out any, scope string) (key string, err error) {
	var buf []byte
	if body != nil {
		buf, err = json.Marshal(body)
		if err != nil {
			return "", fmt.Errorf("platform: encode request: %w", err)
		}
	}
	backoff := c.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		retry, key, err := c.attempt(method, path, buf, body != nil, out, scope)
		if err == nil || !retry || attempt >= c.opts.MaxRetries {
			c.learnRoute(scope, key)
			return key, err
		}
		c.opts.Clock.Sleep(vclock.Jitter(c.opts.Rand, backoff, 0.25))
		backoff *= 2
	}
}

// attempt is one wire round of do. retry reports whether the failure is
// transient (connection error or retryable 5xx).
func (c *HTTPClient) attempt(method, path string, buf []byte, hasBody bool, out any, scope string) (retry bool, key string, err error) {
	var rdr io.Reader
	if hasBody {
		rdr = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		return false, "", err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if hint := c.routeHint(scope); hint != "" {
		req.Header.Set(HeaderShardKey, hint)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Connection refused/reset, timeout, DNS: the transport never got
		// a response, so the server is restarting or unreachable.
		return true, "", fmt.Errorf("platform: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusNoContent {
		return false, "", ErrNoTask
	}
	if resp.StatusCode >= 400 {
		var ae apiError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			return RetryableStatus(resp.StatusCode), "",
				fmt.Errorf("platform: %s %s: HTTP %d", method, path, resp.StatusCode)
		}
		werr := codeToError(ae.Code, ae.Error)
		// A typed platform error (unknown task, duplicate answer, ...) is
		// a definitive verdict, not an outage — except read_only with no
		// redirect, which resolves once a promotion lands.
		return RetryableStatus(resp.StatusCode) && werr == ErrReadOnly, "", werr
	}
	key = resp.Header.Get(HeaderShardKey)
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return false, key, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, key, fmt.Errorf("platform: decode response: %w", err)
	}
	return false, key, nil
}

// EnsureProject implements Client.
func (c *HTTPClient) EnsureProject(spec ProjectSpec) (Project, error) {
	var p Project
	key, err := c.do(http.MethodPut, "/api/projects", spec, &p, "")
	if err == nil {
		c.learnRoute(projScope(p.ID), key)
	}
	return p, err
}

// FindProject implements Client.
func (c *HTTPClient) FindProject(name string) (Project, bool, error) {
	var p Project
	key, err := c.do(http.MethodGet, "/api/projects/find?name="+url.QueryEscape(name), nil, &p, "")
	if err == ErrUnknownProject {
		return Project{}, false, nil
	}
	if err != nil {
		return Project{}, false, err
	}
	c.learnRoute(projScope(p.ID), key)
	return p, true, nil
}

// AddTasks implements Client. In gateway mode the created tasks inherit
// the project's routing key, so a later Submit can be routed blind.
func (c *HTTPClient) AddTasks(projectID int64, specs []TaskSpec) ([]Task, error) {
	var tasks []Task
	key, err := c.do(http.MethodPost, fmt.Sprintf("/api/projects/%d/tasks", projectID),
		specs, &tasks, projScope(projectID))
	if err == nil {
		for _, t := range tasks {
			c.learnRoute(taskScope(t.ID), key)
		}
	}
	return tasks, err
}

// RequestTask implements Client.
func (c *HTTPClient) RequestTask(projectID int64, workerID string) (Task, error) {
	var t Task
	key, err := c.do(http.MethodPost,
		fmt.Sprintf("/api/projects/%d/newtask?worker=%s", projectID, url.QueryEscape(workerID)),
		nil, &t, projScope(projectID))
	if err == nil {
		c.learnRoute(taskScope(t.ID), key)
	}
	return t, err
}

// Submit implements Client.
func (c *HTTPClient) Submit(taskID int64, workerID, answer string) (TaskRun, error) {
	var run TaskRun
	_, err := c.do(http.MethodPost, fmt.Sprintf("/api/tasks/%d/runs", taskID),
		submitRequest{WorkerID: workerID, Answer: answer}, &run, taskScope(taskID))
	return run, err
}

// Tasks implements Client.
func (c *HTTPClient) Tasks(projectID int64) ([]Task, error) {
	var tasks []Task
	key, err := c.do(http.MethodGet, fmt.Sprintf("/api/projects/%d/tasks", projectID),
		nil, &tasks, projScope(projectID))
	if err == nil {
		for _, t := range tasks {
			c.learnRoute(taskScope(t.ID), key)
		}
	}
	return tasks, err
}

// Runs implements Client.
func (c *HTTPClient) Runs(taskID int64) ([]TaskRun, error) {
	var runs []TaskRun
	_, err := c.do(http.MethodGet, fmt.Sprintf("/api/tasks/%d/runs", taskID), nil, &runs, taskScope(taskID))
	return runs, err
}

// RunsAfter implements Client. The request stays open for up to wait
// (the server caps it at 10s) when nothing new is visible, so wait must
// stay below the client's request timeout.
func (c *HTTPClient) RunsAfter(projectID int64, cursor string, wait time.Duration) (RunPage, error) {
	var page RunPage
	path := fmt.Sprintf("/api/projects/%d/runs?after=%s", projectID, url.QueryEscape(cursor))
	if wait > 0 {
		path += "&wait=" + url.QueryEscape(wait.String())
	}
	_, err := c.do(http.MethodGet, path, nil, &page, projScope(projectID))
	return page, err
}

// Stats implements Client.
func (c *HTTPClient) Stats(projectID int64) (ProjectStats, error) {
	var st ProjectStats
	_, err := c.do(http.MethodGet, fmt.Sprintf("/api/projects/%d/stats", projectID), nil, &st, projScope(projectID))
	return st, err
}

// PlatformStats fetches the server-wide journal/storage counters.
// (Engine-extra, like QueueStats; not part of the Client interface.)
func (c *HTTPClient) PlatformStats() (PlatformStats, error) {
	var st PlatformStats
	_, err := c.do(http.MethodGet, "/api/stats", nil, &st, "")
	return st, err
}

// BanWorker implements Client.
func (c *HTTPClient) BanWorker(projectID int64, workerID string) error {
	_, err := c.do(http.MethodPost, fmt.Sprintf("/api/projects/%d/ban", projectID),
		banRequest{WorkerID: workerID}, nil, projScope(projectID))
	return err
}
