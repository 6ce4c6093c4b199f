package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distops"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/quality"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/simdata"
	"repro/internal/similarity"
	"repro/internal/vclock"
)

// The join4 workload: E17's distributed crowd join, 1000 entity-resolution
// pairs over 4 ring leaders behind the gateway, 3 answers per pair.
const (
	join4Entities   = 36
	join4Pairs      = 1000
	join4Redundancy = 3
	join4Setups     = 15
)

var join4Parts = []string{"n1", "n2", "n3", "n4"}

// join4Poll is the collectors' pause between polling rounds. The
// distops default is 2 ms; at that pace, on a 2-CPU box, the four
// collectors take over half the CPU and feed back on themselves (a join
// slowed by anything polls more per verdict, which slows it further), so
// run-to-run spread swamps any usable bound. 20 ms is still far below a
// human worker's answer time.
const join4Poll = 20 * time.Millisecond

type join4Cluster struct {
	leaders []*node
	gw      *gateway
	prog    *countingClient // the CrowdContext's client: the program's own calls
	gen     *countingClient // the simulated workers' client: the generator
	cc      *core.CrowdContext
}

func (c *join4Cluster) close() {
	if c.cc != nil {
		c.cc.Close()
	}
	if c.gw != nil {
		c.gw.close()
	}
	for _, l := range c.leaders {
		l.close()
	}
}

func setupJoin4(e *env) (*join4Cluster, error) {
	dir, err := os.MkdirTemp(e.root, "join4-*")
	if err != nil {
		return nil, err
	}
	c := &join4Cluster{}
	ring := repl.NewRing(0, join4Parts...)
	for _, name := range join4Parts {
		name := name
		l, err := startLeader(filepath.Join(dir, name), name, func(id int64) bool { return ring.Lookup(id) == name }, e.tr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.leaders = append(c.leaders, l)
	}
	if c.gw, err = startGateway(c.leaders, e.tr); err != nil {
		c.close()
		return nil, err
	}
	// The program's client is the one a Reprowd user would build; only
	// the idle pool is widened so its concurrent shards reuse connections.
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConnsPerHost = 32
	hc := &http.Client{Transport: e.tr.transport("http.client", true, tp)}
	c.prog = newCountingClient(platform.NewGatewayHTTPClient(c.gw.url(), hc))
	c.gen = genClient(c.gw.url(), e.tr)
	c.cc, err = core.NewContext(core.Options{
		DBDir:  filepath.Join(dir, "ctx"),
		Client: c.prog,
		Clock:  vclock.NewVirtual(),
	})
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// join4Inputs generates the seed's pair set.
func join4Inputs(seed int64) (simdata.ERCorpus, []ops.ScoredPair, error) {
	corpus := simdata.Restaurants(simdata.ERConfig{
		Seed: seed, Entities: join4Entities, DupProb: 0.5, MaxDups: 2, NoiseOps: 2,
	})
	records := make([]ops.Record, 0, len(corpus.Records))
	for _, r := range corpus.Records {
		records = append(records, ops.Record{ID: r.ID, Fields: r.Fields})
	}
	pairs, err := ops.TopPairs(records, join4Pairs, similarity.Measure{})
	if err != nil {
		return corpus, nil, err
	}
	if len(pairs) < join4Pairs {
		return corpus, nil, fmt.Errorf("join4: seed %d yields %d pairs, want %d", seed, len(pairs), join4Pairs)
	}
	return corpus, pairs, nil
}

// lagKey identifies one answer: a task and the worker who gave it.
type lagKey struct {
	task   int64
	worker string
}

// lagTracker measures answer freshness: from a worker's Submit returning
// to the verdict for that answer reaching OnVerdict. A verdict can beat
// the Submit response home; that lag counts as zero.
type lagTracker struct {
	mu        sync.Mutex
	submitted map[lagKey]time.Time
	early     map[lagKey]bool
	lags      []time.Duration
}

func newLagTracker() *lagTracker {
	return &lagTracker{submitted: map[lagKey]time.Time{}, early: map[lagKey]bool{}}
}

func (l *lagTracker) submit(k lagKey, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.early[k] {
		delete(l.early, k)
		l.lags = append(l.lags, 0)
		return
	}
	l.submitted[k] = at
}

func (l *lagTracker) verdict(k lagKey, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t, ok := l.submitted[k]; ok {
		delete(l.submitted, k)
		l.lags = append(l.lags, at.Sub(t))
		return
	}
	l.early[k] = true
}

// workerGen is the closed-loop crowd: deterministic workers, each asking
// for its next task only after the previous answer was acknowledged,
// with at most genCap requests in flight across all shards.
type workerGen struct {
	client   platform.Client
	truth    map[string]bool
	sem      chan struct{}
	infl     *inflight
	lag      *lagTracker
	mu       sync.Mutex
	request  []time.Duration
	submitRT []time.Duration
}

func (g *workerGen) call(fn func() error) (time.Duration, error) {
	g.sem <- struct{}{}
	g.infl.enter()
	t := time.Now()
	err := fn()
	d := time.Since(t)
	g.infl.exit()
	<-g.sem
	return d, err
}

// answerShard is E17's worker model: join4Redundancy workers answer every
// task of the shard, each answering the truth except for a fixed ~10% of
// (worker, item) combinations chosen by FNV hash — so the votes depend
// only on the pair set, never on timing or placement.
func (g *workerGen) answerShard(sr distops.ShardRun) error {
	for w := 0; w < join4Redundancy; w++ {
		id := fmt.Sprintf("w-%d", w)
		for {
			var task platform.Task
			d, err := g.call(func() (err error) {
				task, err = g.client.RequestTask(sr.ProjectID, id)
				return err
			})
			g.mu.Lock()
			g.request = append(g.request, d)
			g.mu.Unlock()
			if errors.Is(err, platform.ErrNoTask) {
				break
			}
			if err != nil {
				return err
			}
			ans := workerAnswer(id, task.Payload["id_a"], task.Payload["id_b"], g.truth)
			d, err = g.call(func() error {
				_, err := g.client.Submit(task.ID, id, ans)
				return err
			})
			if err != nil {
				return err
			}
			g.lag.submit(lagKey{task.ID, id}, time.Now())
			g.mu.Lock()
			g.submitRT = append(g.submitRT, d)
			g.mu.Unlock()
		}
	}
	return nil
}

// submits is how many submit round trips have been recorded.
func (g *workerGen) submits() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.submitRT)
}

// submitsSince copies the submit round trips recorded after the first n.
func (g *workerGen) submitsSince(n int) []time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]time.Duration(nil), g.submitRT[n:]...)
}

func workerAnswer(worker, a, b string, truth map[string]bool) string {
	ans := truth[metrics.PairKey(a, b)]
	h := fnv.New64a()
	h.Write([]byte(worker + "|" + ops.PairRowID(a, b)))
	if h.Sum64()%100 < 10 {
		ans = !ans
	}
	if ans {
		return "Yes"
	}
	return "No"
}

// joinPhase accounts one CrowdJoin call.
type joinPhase struct {
	start, firstAnswer, lastAnswer, end time.Time
	mu                                  sync.Mutex
	votes                               []itemVote // in arrival order
}

type itemVote struct {
	item string
	vote quality.Vote
}

func (p *joinPhase) answerStarted(t time.Time) {
	p.mu.Lock()
	if p.firstAnswer.IsZero() || t.Before(p.firstAnswer) {
		p.firstAnswer = t
	}
	p.mu.Unlock()
}

func (p *joinPhase) answerDone(t time.Time) {
	p.mu.Lock()
	if t.After(p.lastAnswer) {
		p.lastAnswer = t
	}
	p.mu.Unlock()
}

func leaderCounts(ls []*node) []platform.PlatformStats {
	out := make([]platform.PlatformStats, len(ls))
	for i, l := range ls {
		out[i] = l.engine.PlatformStats()
	}
	return out
}

func runJoin4(e *env) (*runOut, error) {
	corpus, pairs, err := join4Inputs(e.seed)
	if err != nil {
		return nil, err
	}
	o := newRunOut()
	c, setupS, err := setupRepeated(join4Setups, func() (*join4Cluster, error) { return setupJoin4(e) }, (*join4Cluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	o.gate["setup_s"] = setupS
	o.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups of 4 leaders + gateway", join4Setups))

	gen := &workerGen{client: c.gen, truth: corpus.Matches, sem: make(chan struct{}, genCap()),
		infl: &inflight{}, lag: newLagTracker()}
	p0, err := takeProbe(e.tr, []*countingClient{c.prog, c.gen}, c.leaders, c.gw, c.cc)
	if err != nil {
		return nil, err
	}
	var (
		streamed, rerunCalls int
		firstWall, rerunWall time.Duration
		phases               []*joinPhase
		iters                int
		rates                []float64 // verdicts/s of each first join
		p50s                 []float64 // submit p50 (ms) of each first join
	)
	start := time.Now()
	for iters == 0 || time.Since(start) < e.measure() {
		table := fmt.Sprintf("join4-%d", iters)
		iters++
		first := &joinPhase{}
		nSubmits := gen.submits()
		res, err := crowdJoin(c, pairs, table, gen, first, true)
		if err != nil {
			return nil, err
		}
		phases = append(phases, first)
		firstWall += first.end.Sub(first.start)
		streamed += res.Streamed
		rates = append(rates, float64(res.Streamed)/first.end.Sub(first.start).Seconds())
		p50s = append(p50s, percentile(toMs(gen.submitsSince(nSubmits)), 50).Value)
		o.check(res.Streamed == len(pairs)*join4Redundancy,
			"%s: streamed %d verdicts, want pairs x redundancy = %d", table, res.Streamed, len(pairs)*join4Redundancy)
		batch := quality.DawidSkene{}.Fit(res.Votes)
		o.check(sameDecisions(res.Decisions, batch.Decisions),
			"%s: incremental decisions differ from a batch Dawid-Skene fit of the same votes", table)

		before := leaderCounts(c.leaders)
		calls0, _ := c.prog.totals()
		rerun := &joinPhase{}
		again, err := crowdJoin(c, pairs, table, gen, rerun, false)
		if err != nil {
			return nil, err
		}
		calls1, _ := c.prog.totals()
		rerunCalls += calls1 - calls0
		rerunWall += rerun.end.Sub(rerun.start)
		o.check(sameDecisions(res.Decisions, again.Decisions), "%s: rerun changed decisions", table)
		after := leaderCounts(c.leaders)
		for i := range before {
			o.check(before[i].Tasks == after[i].Tasks && before[i].Runs == after[i].Runs,
				"%s: rerun changed leader %s counts (tasks %d->%d, runs %d->%d)", table, c.leaders[i].name,
				before[i].Tasks, after[i].Tasks, before[i].Runs, after[i].Runs)
		}
	}
	p1, err := takeProbe(e.tr, []*countingClient{c.prog, c.gen}, c.leaders, c.gw, c.cc)
	if err != nil {
		return nil, err
	}

	// The median join, not the pooled rate: on a small shared box a join
	// now and then runs in a much slower or faster regime, and one such
	// join should not move the run's figure.
	vps := median(rates)
	o.add("verdicts_per_s", vps, "1/s", fmt.Sprintf("median of %d joins of %d pairs (pooled %.1f/s)", iters, len(pairs), float64(streamed)/firstWall.Seconds()))
	o.gate["answers_per_s"] = vps
	gen.lag.mu.Lock()
	lags := append([]time.Duration(nil), gen.lag.lags...)
	gen.lag.mu.Unlock()
	o.check(len(lags) == streamed, "verdict lag matched %d answers, want %d", len(lags), streamed)
	o.addLatency("verdict_lag", lags)
	o.addLatency("submit", gen.submitRT)
	o.addLatency("request", gen.request)
	o.gate["p50_ms"] = median(p50s)
	o.add("rerun_s", rerunWall.Seconds()/float64(iters), "s", fmt.Sprintf("mean of %d reruns", iters))
	o.add("inflight_max", float64(gen.infl.peak.Load()), "count", fmt.Sprintf("cap %d", genCap()))
	o.check(int(gen.infl.peak.Load()) <= genCap(), "generator had %d requests in flight, cap %d", gen.infl.peak.Load(), genCap())
	calls, errs := c.prog.totals()
	gcalls, gerrs := c.gen.totals()
	o.attempted, o.failed = calls+gcalls, errs+gerrs

	if e.tr != nil {
		answers := float64(streamed)
		clusterLayers(o, e.tr, p0, p1, answers)
		var pub, ans, drain time.Duration
		for _, p := range phases {
			pub += p.firstAnswer.Sub(p.start)
			ans += p.lastAnswer.Sub(p.firstAnswer)
			drain += p.end.Sub(p.lastAnswer)
		}
		o.layer["distops.publish_s"] = pub.Seconds()
		o.layer["distops.answer_s"] = ans.Seconds()
		o.layer["distops.drain_s"] = drain.Seconds()
		o.layer["core.rerun.client_calls"] = float64(rerunCalls)
		o.layer["core.db.bytes_written_per_answer"] = float64(p1.ctxDB-p0.ctxDB) / answers
		// Replay the first join's vote stream, in arrival order, into a
		// fresh online model: the quality layer's cost per vote.
		online := quality.NewOnlineDawidSkene(quality.DawidSkene{}, 64)
		t := time.Now()
		for _, v := range phases[0].votes {
			online.Observe(v.item, v.vote)
		}
		o.layer["quality.observe_us_per_vote"] = float64(time.Since(t).Microseconds()) / float64(len(phases[0].votes))
		t = time.Now()
		online.Finalize()
		o.layer["quality.finalize_s"] = time.Since(t).Seconds()
		o.layer["loadgen.inflight_max"] = float64(gen.infl.peak.Load())
	}
	return o, nil
}

// crowdJoin runs distops.CrowdJoin once on table. live marks the first
// run of a table, whose verdicts feed the lag tracker; a rerun only
// checks that nothing new is published or answered.
func crowdJoin(c *join4Cluster, pairs []ops.ScoredPair, table string, gen *workerGen, ph *joinPhase, live bool) (distops.Result, error) {
	cfg := distops.Config{
		Partitions:   join4Parts,
		Table:        table,
		Redundancy:   join4Redundancy,
		BatchSize:    256,
		Concurrency:  4,
		PollInterval: join4Poll,
		Clock:        sim.RealClock(),
		Quality:      quality.NewOnlineDawidSkene(quality.DawidSkene{}, 64),
		OnVerdict: func(v distops.Verdict) {
			if !live {
				return
			}
			gen.lag.verdict(lagKey{v.TaskID, v.Worker}, time.Now())
			ph.mu.Lock()
			ph.votes = append(ph.votes, itemVote{v.Item, quality.Vote{Worker: v.Worker, Value: v.Value}})
			ph.mu.Unlock()
		},
		Answer: func(sr distops.ShardRun) error {
			ph.answerStarted(time.Now())
			defer func() { ph.answerDone(time.Now()) }()
			return gen.answerShard(sr)
		},
	}
	ph.start = time.Now()
	res, err := distops.CrowdJoin(c.cc, pairs, cfg)
	ph.end = time.Now()
	if err != nil {
		return res, fmt.Errorf("join4 %s: %w", table, err)
	}
	return res, nil
}

func sameDecisions(a, b map[string]quality.Decision) bool {
	if len(a) != len(b) {
		return false
	}
	for k, d := range a {
		if bd, ok := b[k]; !ok || bd.Value != d.Value {
			return false
		}
	}
	return true
}

// setupRepeated builds a cluster n times, closing all but the last, and
// returns the last one with the median set-up time in seconds.
func setupRepeated[C any](n int, build func() (C, error), closeFn func(C)) (C, float64, error) {
	var (
		c     C
		times []float64
	)
	for i := 0; i < n; i++ {
		t := time.Now()
		got, err := build()
		if err != nil {
			return c, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if i < n-1 {
			closeFn(got)
		} else {
			c = got
		}
	}
	return c, median(times), nil
}
