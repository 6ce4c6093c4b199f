package distops

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/similarity"
	"repro/internal/vclock"
)

// parkingClient passes the first long poll through and parks every later
// one until released — a long poll that would otherwise run out its
// whole wait. Non-waiting reads pass through.
type parkingClient struct {
	platform.Client
	polls   atomic.Int32
	parked  chan struct{}
	release chan struct{}
}

func (c *parkingClient) RunsAfter(projectID int64, cursor string, wait time.Duration) (platform.RunPage, error) {
	if wait > 0 && c.polls.Add(1) > 1 {
		c.parked <- struct{}{}
		<-c.release
	}
	return c.Client.RunsAfter(projectID, cursor, wait)
}

// TestCollectorStopAbandonsLongPoll: a collector told to stop while a
// long poll is in flight returns at once, and its closing sweep still
// emits the answer that landed while the poll was parked.
func TestCollectorStopAbandonsLongPoll(t *testing.T) {
	engine := platform.NewEngine(vclock.NewVirtual())
	p, err := engine.EnsureProject(platform.ProjectSpec{Name: "stop", Redundancy: 2})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := engine.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "a"}, {ExternalID: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	info := map[int64]taskIdent{}
	for _, task := range tasks {
		info[task.ID] = taskIdent{item: task.ExternalID, rowKey: task.ExternalID, redundancy: 2}
		if _, err := engine.Submit(task.ID, "w1", "yes"); err != nil {
			t.Fatal(err)
		}
	}
	client := &parkingClient{Client: engine, parked: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(client.release)
	var (
		mu       sync.Mutex
		verdicts []Verdict
	)
	coll := newCollector(collector{
		client:    client,
		projectID: p.ID,
		poll:      time.Millisecond,
		clock:     vclock.NewWall(),
		info:      info,
		emit: func(v Verdict) {
			mu.Lock()
			verdicts = append(verdicts, v)
			mu.Unlock()
		},
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- coll.run(stop) }()
	select {
	case <-client.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("collector never reached its second long poll")
	}
	late, err := engine.Submit(tasks[0].ID, "w2", "no")
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stopped collector waited out its long poll")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(verdicts) != 3 || verdicts[2].RunID != late.ID {
		t.Fatalf("verdicts = %+v, want the 2 early answers then run %d", verdicts, late.ID)
	}
	if coll.streamed[tasks[0].ID] != 2 || coll.streamed[tasks[1].ID] != 1 {
		t.Fatalf("streamed = %v, want 2 and 1", coll.streamed)
	}
}

// restartingClient forgets the cursor on every other call, as a leader
// failover does: the feed restarts from the beginning.
type restartingClient struct {
	platform.Client
	calls atomic.Int32
}

func (c *restartingClient) RunsAfter(projectID int64, cursor string, wait time.Duration) (platform.RunPage, error) {
	if c.calls.Add(1)%2 == 0 {
		cursor = ""
	}
	return c.Client.RunsAfter(projectID, cursor, wait)
}

// TestCollectorDedupesFeedRestart: a feed that restarts from the
// beginning (an unrecognised cursor) re-delivers runs the collector
// already emitted; each answer still becomes exactly one verdict.
func TestCollectorDedupesFeedRestart(t *testing.T) {
	engine := platform.NewEngine(vclock.NewVirtual())
	p, err := engine.EnsureProject(platform.ProjectSpec{Name: "restart", Redundancy: 3})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := engine.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "a"}, {ExternalID: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	info := map[int64]taskIdent{}
	for _, task := range tasks {
		info[task.ID] = taskIdent{item: task.ExternalID, rowKey: task.ExternalID, redundancy: 3}
	}
	submit := func(w string) {
		for _, task := range tasks {
			if _, err := engine.Submit(task.ID, w, "yes"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two answers per task before the collector starts, the third only
	// after it has read past a restart.
	submit("w1")
	submit("w2")
	client := &restartingClient{Client: engine}
	var (
		mu   sync.Mutex
		seen = map[int64]int{}
	)
	coll := newCollector(collector{
		client:    client,
		projectID: p.ID,
		poll:      time.Millisecond,
		clock:     vclock.NewVirtual(),
		info:      info,
		emit: func(v Verdict) {
			mu.Lock()
			seen[v.RunID]++
			mu.Unlock()
		},
	})
	done := make(chan error, 1)
	go func() { done <- coll.run(make(chan struct{})) }()
	deadline := time.Now().Add(10 * time.Second)
	for client.calls.Load() < 3 && len(done) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("collector stalled before the feed restart")
		}
		time.Sleep(time.Millisecond)
	}
	submit("w3")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("collector did not finish once every task reached its redundancy")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 6 {
		t.Fatalf("emitted %d distinct runs, want 6", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("run %d emitted %d times", id, n)
		}
	}
}

// listingClient counts the per-task polling calls the feed replaced.
type listingClient struct {
	platform.Client
	tasks, runs atomic.Int32
}

func (c *listingClient) Tasks(projectID int64) ([]platform.Task, error) {
	c.tasks.Add(1)
	return c.Client.Tasks(projectID)
}

func (c *listingClient) Runs(taskID int64) ([]platform.TaskRun, error) {
	c.runs.Add(1)
	return c.Client.Runs(taskID)
}

// TestCrowdJoinReadsOnlyTheFeed: a distributed join — first run and
// rerun — streams and collects every answer without listing a shard's
// tasks or fetching any task's runs one by one.
func TestCrowdJoinReadsOnlyTheFeed(t *testing.T) {
	records, truth := testRecords(20)
	pairs, err := ops.TopPairs(records, 40, similarity.Measure{})
	if err != nil {
		t.Fatal(err)
	}
	engine := platform.NewEngine(vclock.NewVirtual())
	client := &listingClient{Client: engine}
	cc := newTestContext(t, client)
	cfg := Config{
		Partitions: []string{"n1", "n2"},
		Table:      "feedjoin",
		Redundancy: 3,
		Answer:     func(sr ShardRun) error { return driveShard(engine, sr, 3, truth, 10) },
	}
	res, err := CrowdJoin(cc, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Streamed != len(pairs)*3 || res.Cost.Answers != len(pairs)*3 {
		t.Fatalf("streamed %d, collected %d; want %d each", res.Streamed, res.Cost.Answers, len(pairs)*3)
	}
	cfg.Answer = nil
	again, err := CrowdJoin(cc, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Streamed != res.Streamed {
		t.Fatalf("rerun streamed %d, first run %d", again.Streamed, res.Streamed)
	}
	if n, m := client.tasks.Load(), client.runs.Load(); n != 0 || m != 0 {
		t.Fatalf("join made %d Tasks and %d Runs calls, want none", n, m)
	}
}

// earlyClient answers every long poll at once, as a server that does not
// honour the wait would.
type earlyClient struct {
	platform.Client
	calls atomic.Int32
}

func (c *earlyClient) RunsAfter(projectID int64, cursor string, _ time.Duration) (platform.RunPage, error) {
	c.calls.Add(1)
	return c.Client.RunsAfter(projectID, cursor, 0)
}

// TestCollectorPausesAfterEmptyRound: a collector whose long polls come
// back empty at once still pauses the poll interval between rounds
// instead of asking back to back.
func TestCollectorPausesAfterEmptyRound(t *testing.T) {
	engine := platform.NewEngine(vclock.NewVirtual())
	p, err := engine.EnsureProject(platform.ProjectSpec{Name: "idle", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := engine.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	client := &earlyClient{Client: engine}
	coll := newCollector(collector{
		client:    client,
		projectID: p.ID,
		poll:      20 * time.Millisecond,
		clock:     vclock.NewWall(),
		info:      map[int64]taskIdent{tasks[0].ID: {item: "a", rowKey: "a", redundancy: 1}},
		emit:      func(Verdict) {},
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- coll.run(stop) }()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// About 10 rounds fit in 200ms at a 20ms pause; a collector that
	// skipped the pause would make thousands of calls.
	if n := client.calls.Load(); n > 30 {
		t.Fatalf("collector made %d feed calls in 200ms at a 20ms poll interval", n)
	}
}
