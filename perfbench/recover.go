package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/storage"
)

// The recover workload: one leader with a large answered history under
// the production checkpoint policy; the timed part restarts the leader
// and bootstraps fresh followers from it, again and again.
const (
	recProjects    = 8
	recTasksPerPrj = 1000
	recRedundancy  = 3
	recSetups      = 3
)

type recCluster struct {
	dir      string
	leader   *node
	projects []int64
	answers  int
	p0, p1   probe // around the history build (traced runs)
}

func (c *recCluster) close() {
	if c.leader != nil {
		c.leader.close()
	}
}

// setupRecover starts a leader and loads its history straight through
// the engine, from many goroutines so group commit keeps fsyncs few.
func setupRecover(e *env) (*recCluster, error) {
	dir, err := os.MkdirTemp(e.root, "recover-*")
	if err != nil {
		return nil, err
	}
	c := &recCluster{dir: filepath.Join(dir, "n1")}
	if c.leader, err = startLeader(c.dir, "n1", nil, e.tr); err != nil {
		return nil, err
	}
	if c.p0, err = takeProbe(e.tr, nil, []*node{c.leader}, nil, nil); err != nil {
		c.close()
		return nil, err
	}
	eng := c.leader.engine
	for p := 0; p < recProjects; p++ {
		prj, err := eng.EnsureProject(platform.ProjectSpec{Name: fmt.Sprintf("rec-%d", p), Redundancy: recRedundancy})
		if err != nil {
			c.close()
			return nil, err
		}
		specs := make([]platform.TaskSpec, recTasksPerPrj)
		for i := range specs {
			specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("r%d", i),
				Payload: map[string]string{"text": fmt.Sprintf("seed %d item %d of project %d", e.seed, i, p)}}
		}
		if _, err := eng.AddTasks(prj.ID, specs); err != nil {
			c.close()
			return nil, err
		}
		c.projects = append(c.projects, prj.ID)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		count int
	)
	for _, pid := range c.projects {
		for w := 0; w < recRedundancy; w++ {
			wg.Add(1)
			go func(pid int64, worker string) {
				defer wg.Done()
				n, err := answerAll(eng, pid, worker, e.seed)
				mu.Lock()
				count += n
				if err != nil && first == nil {
					first = err
				}
				mu.Unlock()
			}(pid, fmt.Sprintf("rw-%d", w))
		}
	}
	wg.Wait()
	if first != nil {
		c.close()
		return nil, first
	}
	c.answers = count
	if err := c.leader.j.Flush(); err != nil {
		c.close()
		return nil, err
	}
	if c.p1, err = takeProbe(e.tr, nil, []*node{c.leader}, nil, nil); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// answerAll has one worker answer every task of a project it is offered.
func answerAll(eng *platform.Engine, pid int64, worker string, seed int64) (int, error) {
	n := 0
	for {
		t, err := eng.RequestTask(pid, worker)
		if errors.Is(err, platform.ErrNoTask) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		ans := "no"
		if (t.ID+seed)%3 == 0 {
			ans = "yes"
		}
		if _, err := eng.Submit(t.ID, worker, ans); err != nil {
			return n, err
		}
		n++
	}
}

// snapshotSeq is the cut point of the newest snapshot in the leader's
// store (0: none).
func snapshotSeq(db *storage.DB) (uint64, error) {
	info, ok, err := storage.ReadSnapshotInfo(db, platform.SnapshotPrefix)
	if err != nil || !ok {
		return 0, err
	}
	return info.Seq, nil
}

func runRecover(e *env) (*runOut, error) {
	o := newRunOut()
	c, setupS, err := setupRepeated(recSetups, func() (*recCluster, error) { return setupRecover(e) }, (*recCluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	o.gate["setup_s"] = setupS
	o.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups: 1 leader, %d projects x %d tasks x %d answers", recSetups, recProjects, recTasksPerPrj, recRedundancy))

	// The history as it stands before any restart: its size on disk, its
	// journal frontier and its exported state.
	frontier := c.leader.j.Len()
	cut, err := snapshotSeq(c.leader.db)
	if err != nil {
		return nil, err
	}
	o.check(cut > 0 && frontier > cut, "history must end in a non-empty tail past a snapshot cut (cut %d, frontier %d)", cut, frontier)
	want, err := c.leader.engine.ExportState(frontier)
	if err != nil {
		return nil, err
	}
	// Every restart below reopens this directory, so measure it first.
	disk, err := dirBytes(c.dir)
	if err != nil {
		return nil, err
	}
	o.add("disk_bytes_per_answer", float64(disk)/float64(c.answers), "B", fmt.Sprintf("%d bytes for %d answers, %d journal events, snapshot at %d", disk, c.answers, frontier, cut))

	// The reader's platform client is rebound to each reopened leader;
	// its transport and counts carry over.
	reader := newCountingClient(nil)
	readerHTTP := &http.Client{Transport: e.tr.transport("http.client", true, http.DefaultTransport.(*http.Transport).Clone())}
	var (
		restarts, boots []time.Duration
		bootBytes, tail float64
	)
	start := time.Now()
	for cycle := 0; cycle < 3 || time.Since(start) < e.measure(); cycle++ {
		checkNow := cycle == 0
		// (a) restart: close and reopen the leader until its first read
		// is served.
		t := time.Now()
		if err := c.leader.close(); err != nil {
			return nil, fmt.Errorf("recover: close leader: %w", err)
		}
		c.leader = nil
		l, err := startLeader(c.dir, "n1", nil, e.tr)
		if err != nil {
			return nil, fmt.Errorf("recover: reopen leader: %w", err)
		}
		c.leader = l
		reader.Client = platform.NewHTTPClient(l.url(), readerHTTP)
		if _, err := reader.Stats(c.projects[0]); err != nil {
			return nil, fmt.Errorf("recover: first read: %w", err)
		}
		restarts = append(restarts, time.Since(t))
		if cycle == 0 && e.tr != nil {
			seq, err := snapshotSeq(l.db)
			if err != nil {
				return nil, err
			}
			o.layer["recover.replayed_events"] = float64(l.j.Len() - seq)
		}

		// (b) bootstrap: a fresh follower, until it has applied the
		// leader's whole journal.
		var spansFrom int64
		if e.tr != nil {
			spansFrom = e.tr.now()
		}
		t = time.Now()
		f, err := startFollower("f1", l, nil, e.tr)
		if err != nil {
			return nil, fmt.Errorf("recover: bootstrap: %w", err)
		}
		if err := f.rn.Follower().WaitFor(frontier, 30*time.Second); err != nil {
			f.close()
			return nil, fmt.Errorf("recover: bootstrap: %w", err)
		}
		boots = append(boots, time.Since(t))
		if e.tr != nil {
			for _, s := range e.tr.snapshot() {
				if s.Layer == "follower.http" && s.Route == "repl" && s.Start >= spansFrom {
					bootBytes += float64(s.RespBytes)
				}
			}
			st := f.engine.ReplStats()
			tail += float64(st.AppliedSeq - st.SnapshotSeq)
		}
		if checkNow || time.Since(start) >= e.measure() {
			lgot, err := l.engine.ExportState(l.j.Len())
			if err != nil {
				return nil, err
			}
			o.check(l.j.Len() == frontier && bytes.Equal(lgot, want), "cycle %d: reopened leader's export differs from the pre-restart export", cycle)
			fgot, err := f.engine.ExportState(f.appliedSeq())
			if err != nil {
				return nil, err
			}
			o.check(bytes.Equal(fgot, want), "cycle %d: bootstrapped follower's export differs from the pre-restart export", cycle)
		}
		if err := f.close(); err != nil {
			return nil, fmt.Errorf("recover: close follower: %w", err)
		}
	}

	rec := percentile(toMs(restarts), 50).Value / 1000
	boot := percentile(toMs(boots), 50).Value / 1000
	o.add("recover_s", rec, "s", fmt.Sprintf("median of %d restarts", len(restarts)))
	o.add("bootstrap_s", boot, "s", fmt.Sprintf("median of %d follower bootstraps", len(boots)))
	o.gate["answers_per_s"] = float64(c.answers) / boot
	o.gate["p50_ms"] = rec * 1000
	// Each restart's first read is a client call; each bootstrap counts as
	// one operation too. Any failure of either aborts the run.
	calls, errs := reader.totals()
	o.attempted, o.failed = calls+len(boots), errs

	if e.tr != nil {
		// The write side of the history (journal, engine, storage,
		// snapshot) comes from the history build; the client and repl
		// layers from the restarts and bootstraps.
		clusterLayers(o, e.tr, c.p0, c.p1, float64(c.answers))
		for op, s := range reader.stats() {
			o.layer["client."+op+".calls"] = float64(s.Calls)
			o.layer["client."+op+".busy_s"] = float64(s.BusyNs) / 1e9
			o.layer["client."+op+".errors"] = float64(s.Errors)
		}
		o.layer["repl.bootstrap_bytes"] = bootBytes / float64(len(boots))
		o.layer["repl.tail_events"] = tail / float64(len(boots))
		o.layer["loadgen.inflight_max"] = 1 // restarts and bootstraps run one at a time
	}
	return o, nil
}
