package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/repl"
)

// The monitor workload: 2 leaders with a follower each behind the
// gateway; workers write (RequestTask+Submit) while dashboards read
// (Stats/Tasks per project, Runs per task), at a fixed offered rate.
const (
	monProjects    = 16
	monTasksPerPrj = 256 // 4096 tasks in all
	// monRedundancy leaves room for every write a 30 s run offers: the
	// Zipf-hottest project draws about a third of them, more than its
	// 256 tasks could take at redundancy 3, and a worker that finds no
	// task left would turn writes into no-task answers.
	monRedundancy = 8
	monWorkers    = 64 // distinct worker ids writes rotate through
	monReadsPerW  = 4  // monitoring reads per worker write
	monZipfS      = 1.1
	monSetups     = 5
	// The offered load: monBurst operations fall due every monTick, one
	// in 1+monReadsPerW of them a write — 500 operations/s, 100 writes/s,
	// frozen so every run offers the same load. That is a quarter to a
	// third of the closed-loop capacity --closed measured on a 2-CPU box
	// (260-430 writes/s with this mix). At half of it (133.3 writes/s),
	// CPU stolen from a shared VM by its neighbours (10-15% for minutes)
	// backed the open loop up, and the median read timed from its due
	// time went from 1.1-1.4 ms to 2.4-5.4 ms within one set. The tick is
	// a whole number of milliseconds because Go timers on Linux wake on
	// a ~1 ms grid (the netpoller's epoll timeout is in whole ms): a
	// 2.5 ms sleep lasts 3 ms, and the generator, not the system, would
	// make operations late.
	monTick  = 4 * time.Millisecond
	monBurst = 2
)

// monWriteRate is the offered write rate, writes/s.
const monWriteRate = float64(monBurst) / (1 + monReadsPerW) / (float64(monTick) / float64(time.Second))

var monClosed = flag.Bool("closed", false, "monitor: measure closed-loop capacity (genCap clients, no schedule) instead of the open loop")

var monParts = []string{"n1", "n2"}

type monCluster struct {
	leaders, followers []*node
	gw                 *gateway
	gen                *countingClient
	projects           []int64
	tasks              []int64
}

func (c *monCluster) close() {
	if c.gw != nil {
		c.gw.close()
	}
	for _, f := range c.followers {
		f.close()
	}
	for _, l := range c.leaders {
		l.close()
	}
}

func (c *monCluster) nodes() []*node {
	return append(append([]*node(nil), c.leaders...), c.followers...)
}

func setupMonitor(e *env) (*monCluster, error) {
	dir, err := os.MkdirTemp(e.root, "monitor-*")
	if err != nil {
		return nil, err
	}
	c := &monCluster{}
	ring := repl.NewRing(0, monParts...)
	for _, name := range monParts {
		name := name
		owns := func(id int64) bool { return ring.Lookup(id) == name }
		l, err := startLeader(filepath.Join(dir, name), name, owns, e.tr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.leaders = append(c.leaders, l)
		f, err := startFollower("f-"+name, l, owns, e.tr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.followers = append(c.followers, f)
	}
	if c.gw, err = startGateway(c.nodes(), e.tr); err != nil {
		c.close()
		return nil, err
	}
	c.gen = genClient(c.gw.url(), e.tr)
	// Pre-publish the projects the dashboards watch.
	for p := 0; p < monProjects; p++ {
		prj, err := c.gen.EnsureProject(platform.ProjectSpec{Name: fmt.Sprintf("mon-%02d", p), Redundancy: monRedundancy})
		if err != nil {
			c.close()
			return nil, err
		}
		specs := make([]platform.TaskSpec, monTasksPerPrj)
		for i := range specs {
			specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("t%d", i), Payload: map[string]string{"url": fmt.Sprintf("img/%d/%d.jpg", p, i)}}
		}
		ts, err := c.gen.AddTasks(prj.ID, specs)
		if err != nil {
			c.close()
			return nil, err
		}
		c.projects = append(c.projects, prj.ID)
		for _, t := range ts {
			c.tasks = append(c.tasks, t.ID)
		}
	}
	if err := c.quiesce(10 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// quiesce waits until every follower has applied its leader's whole
// journal.
func (c *monCluster) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, f := range c.followers {
		l := c.leaders[i]
		if err := l.j.Flush(); err != nil {
			return err
		}
		for f.appliedSeq() < l.appliedSeq() {
			if time.Now().After(deadline) {
				return fmt.Errorf("monitor: follower %s stuck at %d of %d", f.name, f.appliedSeq(), l.appliedSeq())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// monOp is one scheduled operation, drawn from the seed before the run.
type monOp struct {
	write   bool
	kind    string // "stats", "tasks", "runs" for reads
	project int64
	task    int64
	worker  string
}

// monSchedule draws n operations: every (1+monReadsPerW)th is a worker
// write, the rest monitoring reads (2/5 Stats, 1/5 Tasks, 2/5 Runs);
// projects and tasks are Zipf-distributed so hot keys repeat.
func monSchedule(seed int64, n int, projects, tasks []int64) []monOp {
	rng := rand.New(rand.NewSource(seed))
	pz := rand.NewZipf(rng, monZipfS, 1, uint64(len(projects)-1))
	tz := rand.NewZipf(rng, monZipfS, 1, uint64(len(tasks)-1))
	// Permute which ids are hot, so the hot set depends on the seed.
	pperm, tperm := rng.Perm(len(projects)), rng.Perm(len(tasks))
	ops := make([]monOp, n)
	writes := 0
	for i := range ops {
		op := monOp{project: projects[pperm[pz.Uint64()]], task: tasks[tperm[tz.Uint64()]]}
		if i%(1+monReadsPerW) == 0 {
			op.write = true
			op.worker = fmt.Sprintf("mw-%d", writes%monWorkers)
			writes++
		} else {
			switch r := rng.Intn(5); {
			case r < 2:
				op.kind = "stats"
			case r < 3:
				op.kind = "tasks"
			default:
				op.kind = "runs"
			}
		}
		ops[i] = op
	}
	return ops
}

// monResults gathers what the generator observed.
type monResults struct {
	mu                   sync.Mutex
	request, submit      []time.Duration   // from the due time
	read                 []time.Duration   // from the due time
	readAt               []time.Time       // each read's due time
	acked                map[int64][]int64 // task -> acknowledged run ids
	noTask, failed, done int
	lastDone             time.Time
}

func (r *monResults) exec(client platform.Client, infl *inflight, op monOp, due time.Time) {
	call := func(fn func() error) error {
		infl.enter()
		defer infl.exit()
		return fn()
	}
	if !op.write {
		err := call(func() error {
			var err error
			switch op.kind {
			case "stats":
				_, err = client.Stats(op.project)
			case "tasks":
				_, err = client.Tasks(op.project)
			default:
				_, err = client.Runs(op.task)
			}
			return err
		})
		r.mu.Lock()
		r.read = append(r.read, time.Since(due))
		r.readAt = append(r.readAt, due)
		r.note(err)
		r.mu.Unlock()
		return
	}
	var task platform.Task
	err := call(func() (err error) {
		task, err = client.RequestTask(op.project, op.worker)
		return err
	})
	reqDone := time.Since(due)
	if err != nil {
		r.mu.Lock()
		r.request = append(r.request, reqDone)
		if errors.Is(err, platform.ErrNoTask) {
			r.noTask++
		}
		r.note(err)
		r.mu.Unlock()
		return
	}
	var run platform.TaskRun
	err = call(func() (err error) {
		run, err = client.Submit(task.ID, op.worker, "yes")
		return err
	})
	subDone := time.Since(due)
	r.mu.Lock()
	r.request = append(r.request, reqDone)
	r.submit = append(r.submit, subDone)
	if err == nil {
		r.acked[task.ID] = append(r.acked[task.ID], run.ID)
	}
	r.note(err)
	r.mu.Unlock()
}

// note books an operation's outcome; the caller holds r.mu. A failed
// request also counts as missing every latency limit: its sample stays
// in the latency set, timed to when the failure came back.
func (r *monResults) note(err error) {
	r.done++
	r.lastDone = time.Now()
	if err != nil && !errors.Is(err, platform.ErrNoTask) {
		r.failed++
	}
}

func runMonitor(e *env) (*runOut, error) {
	o := newRunOut()
	c, setupS, err := setupRepeated(monSetups, func() (*monCluster, error) { return setupMonitor(e) }, (*monCluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	o.gate["setup_s"] = setupS
	o.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups: 2 leaders + 2 followers + gateway, %d projects x %d tasks published", monSetups, monProjects, monTasksPerPrj))

	n := int(e.seconds / monTick.Seconds() * monBurst)
	ops := monSchedule(e.seed, n, c.projects, c.tasks)
	res := &monResults{acked: map[int64][]int64{}}
	infl := &inflight{}

	p0, err := takeProbe(e.tr, []*countingClient{c.gen}, c.nodes(), c.gw, nil)
	if err != nil {
		return nil, err
	}
	// Sample follower lag from the followers' own status while the load
	// runs.
	var lagSamples []float64
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				for _, f := range c.followers {
					lagSamples = append(lagSamples, float64(f.engine.ReplStats().Lag))
				}
			}
		}
	}()
	start := time.Now()
	var late []time.Duration
	if *monClosed {
		late = closedLoop(n, genCap(), func(i int, due time.Time) { res.exec(c.gen, infl, ops[i], due) })
	} else {
		late = openLoop(start, monTick, monBurst, n, genCap(), func(i int, due time.Time) {
			res.exec(c.gen, infl, ops[i], due)
		})
	}
	elapsed := res.lastDone.Sub(start)
	close(stopLag)
	<-lagDone
	p1, err := takeProbe(e.tr, []*countingClient{c.gen}, c.nodes(), c.gw, nil)
	if err != nil {
		return nil, err
	}

	acked := 0
	for _, runs := range res.acked {
		acked += len(runs)
	}
	rateAch := float64(acked) / elapsed.Seconds()
	o.add("verdicts_per_s", rateAch, "1/s", fmt.Sprintf("%d acknowledged submits in %.2fs; offered %.1f writes/s, %d no-task", acked, elapsed.Seconds(), monWriteRate, res.noTask))
	o.gate["answers_per_s"] = rateAch
	o.addLatency("submit", res.submit)
	o.addLatency("request", res.request)
	o.addLatency("read", res.read)
	o.gate["p50_ms"] = windowedMedian(start, monWindow, res.readAt, res.read)
	lp := percentile(toMs(late), 99)
	o.add("loadgen.late_p99_ms", lp.Value, "ms", fmt.Sprintf("n=%d, %d beyond", lp.N, lp.Beyond))
	o.add("inflight_max", float64(infl.peak.Load()), "count", fmt.Sprintf("cap %d", genCap()))
	o.check(int(infl.peak.Load()) <= genCap(), "generator had %d requests in flight, cap %d", infl.peak.Load(), genCap())
	o.attempted, o.failed = res.done, res.failed

	// Every acknowledged submit must be visible through the gateway once
	// the followers have caught up.
	if err := c.quiesce(10 * time.Second); err != nil {
		return nil, err
	}
	checker := platform.NewGatewayHTTPClient(c.gw.url(), nil)
	taskIDs := make([]int64, 0, len(res.acked))
	for t := range res.acked {
		taskIDs = append(taskIDs, t)
	}
	sort.Slice(taskIDs, func(i, j int) bool { return taskIDs[i] < taskIDs[j] })
	missing := 0
	for _, t := range taskIDs {
		runs, err := checker.Runs(t)
		if err != nil {
			return nil, fmt.Errorf("monitor check: runs of task %d: %w", t, err)
		}
		have := map[int64]bool{}
		for _, r := range runs {
			have[r.ID] = true
		}
		for _, id := range res.acked[t] {
			if !have[id] {
				missing++
			}
		}
	}
	o.check(missing == 0, "%d acknowledged submits missing from Runs through the gateway", missing)
	o.check(acked > 0, "no submit was acknowledged")

	if e.tr != nil {
		clusterLayers(o, e.tr, p0, p1, float64(acked))
		o.layer["repl.lag_events_p99"] = percentile(lagSamples, 99).Value
		o.layer["loadgen.late_p99_ms"] = lp.Value
		o.layer["loadgen.inflight_max"] = float64(infl.peak.Load())
	}
	return o, nil
}

// monWindow is the length of the windows whose read p50s are
// medianed into the gated p50_ms, so a stall of the shared box that
// covers part of a run moves the figure by at most its share of windows.
const monWindow = 5 * time.Second

// windowedMedian cuts samples into windows by their time stamp and
// returns the median of the windows' p50s (ms).
func windowedMedian(start time.Time, window time.Duration, at []time.Time, samples []time.Duration) float64 {
	byWin := map[int][]time.Duration{}
	for i, t := range at {
		w := int(t.Sub(start) / window)
		byWin[w] = append(byWin[w], samples[i])
	}
	var p50s []float64
	for _, s := range byWin {
		p50s = append(p50s, percentile(toMs(s), 50).Value)
	}
	return median(p50s)
}

// closedLoop runs n operations on workers goroutines back to back, each
// due the moment its worker is free: the capacity probe behind
// monWriteRate.
func closedLoop(n, workers int, exec func(i int, due time.Time)) []time.Duration {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				exec(i, time.Now())
			}
		}()
	}
	wg.Wait()
	return make([]time.Duration, n)
}
