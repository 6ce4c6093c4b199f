package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/platform"
	"repro/internal/storage"
)

// countingClient wraps a platform client and records AddTasks call sizes.
type countingClient struct {
	platform.Client
	mu    sync.Mutex
	calls []int
	fail  int // fail the Nth call (1-based); 0 disables
	n     int
}

func (c *countingClient) AddTasks(projectID int64, specs []platform.TaskSpec) ([]platform.Task, error) {
	c.mu.Lock()
	c.n++
	c.calls = append(c.calls, len(specs))
	fail := c.fail != 0 && c.n == c.fail
	c.mu.Unlock()
	if fail {
		return nil, errors.New("injected batch failure")
	}
	return c.Client.AddTasks(projectID, specs)
}

func batchObjects(n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{"id": fmt.Sprintf("obj-%03d", i), "truth": "Yes"}
	}
	return objs
}

func TestPublishBatched(t *testing.T) {
	env := newEnv(t, 3, nil)
	counting := &countingClient{Client: env.engine}
	cc, err := NewContext(Options{DBDir: env.dbDir, Client: counting, Clock: env.clock, KeyFunc: FieldKey("id")})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	cd, err := cc.CrowdData(batchObjects(100), "batched")
	if err != nil {
		t.Fatal(err)
	}
	cd.SetPresenter(ImageLabel("label?"))
	n, err := cd.Publish(PublishOptions{Redundancy: 2, BatchSize: 16, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("published %d rows, want 100", n)
	}
	counting.mu.Lock()
	calls := append([]int(nil), counting.calls...)
	counting.mu.Unlock()
	if len(calls) != 7 { // ceil(100/16)
		t.Fatalf("AddTasks called %d times (%v), want 7", len(calls), calls)
	}
	total := 0
	for _, c := range calls {
		if c > 16 {
			t.Fatalf("batch of %d exceeds BatchSize 16", c)
		}
		total += c
	}
	if total != 100 {
		t.Fatalf("batches covered %d specs, want 100", total)
	}

	// Every row's task column must line up with its own key: completion
	// order must not permute task assignment.
	pid, err := cd.ProjectID()
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := env.engine.Tasks(pid)
	if err != nil {
		t.Fatal(err)
	}
	extByID := make(map[int64]string, len(tasks))
	for _, task := range tasks {
		extByID[task.ID] = task.ExternalID
	}
	for _, row := range cd.Rows() {
		if row.Task == nil {
			t.Fatalf("row %s has no task", row.Key)
		}
		if got := extByID[row.Task.PlatformTaskID]; got != row.Key {
			t.Fatalf("row %s bound to task with external id %s", row.Key, got)
		}
	}

	// Republish is a no-op: all rows already have task columns.
	if n, err := cd.Publish(PublishOptions{Redundancy: 2, BatchSize: 16}); err != nil || n != 0 {
		t.Fatalf("republish = (%d, %v), want (0, nil)", n, err)
	}
}

func TestPublishBatchedPartialFailureIsRerunnable(t *testing.T) {
	env := newEnv(t, 3, nil)
	counting := &countingClient{Client: env.engine, fail: 3}
	cc, err := NewContext(Options{DBDir: env.dbDir, Client: counting, Clock: env.clock, KeyFunc: FieldKey("id")})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	cd, err := cc.CrowdData(batchObjects(50), "flaky")
	if err != nil {
		t.Fatal(err)
	}
	cd.SetPresenter(ImageLabel("label?"))
	if _, err := cd.Publish(PublishOptions{BatchSize: 10}); err == nil {
		t.Fatal("publish with injected failure should error")
	}
	// No task column may have been persisted by the failed publish.
	for _, row := range cd.Rows() {
		if row.Task != nil {
			t.Fatalf("row %s has a task after failed publish", row.Key)
		}
	}

	// The rerun succeeds and re-binds the tasks the partial batches
	// already created (the platform deduplicates on the row key).
	if n, err := cd.Publish(PublishOptions{BatchSize: 10}); err != nil || n != 50 {
		t.Fatalf("rerun publish = (%d, %v), want (50, nil)", n, err)
	}
	seen := map[int64]bool{}
	for _, row := range cd.Rows() {
		if row.Task == nil {
			t.Fatalf("row %s unpublished after rerun", row.Key)
		}
		if seen[row.Task.PlatformTaskID] {
			t.Fatalf("task %d bound to two rows", row.Task.PlatformTaskID)
		}
		seen[row.Task.PlatformTaskID] = true
	}
}

// feedCountingClient counts the calls Collect makes to read answers.
type feedCountingClient struct {
	platform.Client
	mu              sync.Mutex
	runs, runsAfter int
}

func (c *feedCountingClient) Runs(taskID int64) ([]platform.TaskRun, error) {
	c.mu.Lock()
	c.runs++
	c.mu.Unlock()
	return c.Client.Runs(taskID)
}

func (c *feedCountingClient) RunsAfter(projectID int64, cursor string, wait time.Duration) (platform.RunPage, error) {
	c.mu.Lock()
	c.runsAfter++
	c.mu.Unlock()
	return c.Client.RunsAfter(projectID, cursor, wait)
}

// TestCollectReadsFeedPages: Collect reads a project's answers from the
// run feed in pages — no per-row Runs calls — and fills each row with
// exactly its task's Runs; a rerun over complete rows reads nothing.
func TestCollectReadsFeedPages(t *testing.T) {
	e := newEnv(t, 1, crowd.Perfect{})
	client := &feedCountingClient{Client: e.engine}
	cc, err := NewContext(Options{
		DBDir:   e.dbDir,
		Client:  client,
		Clock:   e.clock,
		Storage: storage.Options{Sync: storage.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	n := platform.RunPageLimit + 30
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{"url": fmt.Sprintf("http://img/%d.jpg", i), "truth": "Yes"}
	}
	cd, err := cc.CrowdData(objs, "paged")
	if err != nil {
		t.Fatal(err)
	}
	cd.SetPresenter(ImageLabel("Dog?"))
	if _, err := cd.Publish(PublishOptions{Redundancy: 1}); err != nil {
		t.Fatal(err)
	}
	drain(t, e, cd)

	rep, err := cd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete != n || rep.NewAnswers != n {
		t.Fatalf("collect = %+v, want %d complete rows and answers", rep, n)
	}
	if client.runs != 0 || client.runsAfter != 2 {
		t.Fatalf("collect made %d Runs and %d RunsAfter calls, want 0 and 2 (two feed pages)", client.runs, client.runsAfter)
	}
	for _, row := range cd.Rows() {
		runs, err := e.engine.Runs(row.Task.PlatformTaskID)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != len(row.Result.Answers) {
			t.Fatalf("row %s: %d answers, task has %d runs", row.Key, len(row.Result.Answers), len(runs))
		}
		for i, r := range runs {
			a := row.Result.Answers[i]
			if a.RunID != r.ID || a.Worker != r.WorkerID || a.Value != r.Answer ||
				!a.AssignedAt.Equal(r.Assigned) || !a.SubmittedAt.Equal(r.Finished) {
				t.Fatalf("row %s answer %d = %+v, run %+v", row.Key, i, a, r)
			}
		}
	}

	client.runsAfter = 0
	if _, err := cd.Collect(); err != nil {
		t.Fatal(err)
	}
	if client.runs != 0 || client.runsAfter != 0 {
		t.Fatalf("rerun collect over complete rows made %d Runs and %d RunsAfter calls, want none", client.runs, client.runsAfter)
	}
}

// feedReadingClient counts the runs Collect reads off the feed and can
// make the feed forget one cursor, as a leader failover does.
type feedReadingClient struct {
	platform.Client
	finds, delivered int
	forget           bool
}

func (c *feedReadingClient) FindProject(name string) (platform.Project, bool, error) {
	c.finds++
	return c.Client.FindProject(name)
}

func (c *feedReadingClient) RunsAfter(projectID int64, cursor string, wait time.Duration) (platform.RunPage, error) {
	if c.forget {
		cursor, c.forget = "", false
	}
	page, err := c.Client.RunsAfter(projectID, cursor, wait)
	c.delivered += len(page.Runs)
	return page, err
}

// TestCollectReadsOnlyNewRuns: each Collect reads only the runs that
// arrived since the previous one, so collecting a growing table costs the
// answers that came in, not the whole project again; a feed that restarts
// from the beginning is deduped, and every row still equals its Runs.
func TestCollectReadsOnlyNewRuns(t *testing.T) {
	e := newEnv(t, 1, crowd.Perfect{})
	client := &feedReadingClient{Client: e.engine}
	cc, err := NewContext(Options{
		DBDir:   e.dbDir,
		Client:  client,
		Clock:   e.clock,
		Storage: storage.Options{Sync: storage.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	const n = 10
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{"url": fmt.Sprintf("http://img/%d.jpg", i)}
	}
	cd, err := cc.CrowdData(objs, "incremental")
	if err != nil {
		t.Fatal(err)
	}
	cd.SetPresenter(ImageLabel("Dog?"))
	if _, err := cd.Publish(PublishOptions{Redundancy: 2}); err != nil {
		t.Fatal(err)
	}
	answer := func(worker string, rows []*Row) {
		t.Helper()
		for _, row := range rows {
			if _, err := e.engine.Submit(row.Task.PlatformTaskID, worker, "Yes"); err != nil {
				t.Fatal(err)
			}
		}
	}
	collect := func(wantDelivered, wantComplete int) {
		t.Helper()
		client.delivered = 0
		rep, err := cd.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if client.delivered != wantDelivered || rep.Complete != wantComplete {
			t.Fatalf("collect read %d runs and left %d rows complete, want %d and %d", client.delivered, rep.Complete, wantDelivered, wantComplete)
		}
	}
	rows := cd.Rows()
	answer("w1", rows)
	collect(n, 0)
	answer("w2", rows[:n/2])
	collect(n/2, n/2)
	answer("w2", rows[n/2:])
	client.forget = true
	collect(2*n, n) // the restarted feed re-sends every run
	if client.finds != 1 {
		t.Fatalf("Collect looked the project up %d times, want once", client.finds)
	}
	for _, row := range rows {
		runs, err := e.engine.Runs(row.Task.PlatformTaskID)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != len(row.Result.Answers) {
			t.Fatalf("row %s: %d answers, task has %d runs", row.Key, len(row.Result.Answers), len(runs))
		}
		for i, r := range runs {
			if a := row.Result.Answers[i]; a.RunID != r.ID || a.Worker != r.WorkerID {
				t.Fatalf("row %s answer %d = %+v, run %+v", row.Key, i, a, r)
			}
		}
	}
}
