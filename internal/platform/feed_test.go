package platform

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// drainFeed reads a project's feed from cursor to its current end without
// waiting, returning the runs and the cursor after them.
func drainFeed(t *testing.T, c Client, projectID int64, cursor string) ([]TaskRun, string) {
	t.Helper()
	var out []TaskRun
	cursor, err := ReadFeed(c, projectID, cursor, func(r TaskRun) { out = append(out, r) })
	if err != nil {
		t.Fatalf("feed of project %d: %v", projectID, err)
	}
	return out, cursor
}

// runIDs lists the ids of runs, in order.
func runIDs(runs []TaskRun) []int64 {
	ids := make([]int64, len(runs))
	for i, r := range runs {
		ids[i] = r.ID
	}
	return ids
}

// assertFeedMatchesRuns checks that feed holds every run of the
// project's tasks exactly once, in Runs order per task.
func assertFeedMatchesRuns(t *testing.T, c Client, projectID int64, feed []TaskRun) {
	t.Helper()
	perTask := map[int64][]TaskRun{}
	seen := map[int64]bool{}
	for _, r := range feed {
		if seen[r.ID] {
			t.Fatalf("feed delivers run %d twice", r.ID)
		}
		seen[r.ID] = true
		perTask[r.TaskID] = append(perTask[r.TaskID], r)
	}
	tasks, err := c.Tasks(projectID)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, task := range tasks {
		runs, err := c.Runs(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		total += len(runs)
		got := perTask[task.ID]
		if fmt.Sprint(runIDs(got)) != fmt.Sprint(runIDs(runs)) {
			t.Fatalf("task %d: feed order %v, Runs order %v", task.ID, runIDs(got), runIDs(runs))
		}
		for i := range runs {
			if got[i] != runs[i] {
				t.Fatalf("task %d run %d: feed %+v, Runs %+v", task.ID, i, got[i], runs[i])
			}
		}
	}
	if len(feed) != total {
		t.Fatalf("feed holds %d runs, the project's tasks %d", len(feed), total)
	}
}

// TestFeedConcurrentSubmittersExactlyOnce drives concurrent submitters
// across many tasks (and so many engine stripes) on a journaled engine —
// the stage/flush/finalize path where runs become visible out of
// submission order — while a consumer follows the feed by cursor with
// long polls. The consumer must see every acknowledged run exactly once,
// in Runs order per task, and nothing from a neighbouring project.
func TestFeedConcurrentSubmittersExactlyOnce(t *testing.T) {
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	j, err := OpenJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e, err := NewEngineOpts(EngineOptions{Clock: vclock.NewWall(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}

	const nTasks, workers = 96, 6
	p, err := e.EnsureProject(ProjectSpec{Name: "feed", Redundancy: workers})
	if err != nil {
		t.Fatal(err)
	}
	noise, err := e.EnsureProject(ProjectSpec{Name: "noise", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]TaskSpec, nTasks)
	for i := range specs {
		specs[i] = TaskSpec{ExternalID: fmt.Sprintf("t-%d", i)}
	}
	tasks, err := e.AddTasks(p.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	noiseTasks, err := e.AddTasks(noise.ID, specs[:8])
	if err != nil {
		t.Fatal(err)
	}

	// The consumer starts before the first submission and stops once it
	// has every run the submitters will produce.
	want := nTasks * workers
	var consumed []TaskRun
	consumerErr := make(chan error, 1)
	go func() {
		cursor := ""
		for len(consumed) < want {
			page, err := e.RunsAfter(p.ID, cursor, 200*time.Millisecond)
			if err != nil {
				consumerErr <- err
				return
			}
			consumed = append(consumed, page.Runs...)
			cursor = page.Next
		}
		consumerErr <- nil
	}()

	var (
		mu    sync.Mutex
		acked = map[int64]TaskRun{}
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := fmt.Sprintf("w-%d", w)
			for i := range tasks {
				task := tasks[(i*7+w*13)%nTasks]
				run, err := e.Submit(task.ID, worker, "yes")
				if err != nil {
					t.Errorf("submit %d by %s: %v", task.ID, worker, err)
					return
				}
				mu.Lock()
				acked[run.ID] = run
				mu.Unlock()
			}
			if w < len(noiseTasks) {
				if _, err := e.Submit(noiseTasks[w].ID, worker, "noise"); err != nil {
					t.Errorf("noise submit: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-consumerErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer did not see all %d runs", want)
	}
	if len(acked) != want {
		t.Fatalf("acked %d runs, want %d", len(acked), want)
	}
	for _, r := range consumed {
		if a, ok := acked[r.ID]; !ok || a != r {
			t.Fatalf("feed delivered run %+v, acked %+v (ok=%v)", r, a, ok)
		}
	}
	assertFeedMatchesRuns(t, e, p.ID, consumed)
}

// TestFeedCursorAcrossRestartSnapshotAndReset takes cursors before a
// restart (journal replay), a restart from a snapshot, and a replica
// reset; each must restart delivery from the beginning — never resume
// at a position in a log the new state does not share.
func TestFeedCursorAcrossRestartSnapshotAndReset(t *testing.T) {
	dir := t.TempDir()
	env := openSnapEnv(t, dir, storage.SyncNever, false, &CheckpointOptions{})
	driveWorkload(t, env.e, 12)
	alpha, _, _ := env.e.FindProject("alpha")
	before, cursor := drainFeed(t, env.e, alpha.ID, "")
	if len(before) == 0 {
		t.Fatal("workload produced no runs")
	}
	env.close()

	// Restart by journal replay: the old cursor names a position in the
	// dead engine's log, so delivery restarts and re-covers it.
	env = openSnapEnv(t, dir, storage.SyncNever, true, &CheckpointOptions{})
	again, _ := drainFeed(t, env.e, alpha.ID, cursor)
	if fmt.Sprint(runIDs(again)) != fmt.Sprint(runIDs(before)) {
		t.Fatalf("after replay the old cursor delivered %v, want a restart %v", runIDs(again), runIDs(before))
	}
	assertFeedMatchesRuns(t, env.e, alpha.ID, again)

	// More answers, a checkpoint, and a restart from the snapshot (plus
	// tail): the same re-delivery, from the snapshot's run order.
	tasks, err := env.e.Tasks(alpha.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks[:4] {
		if _, err := env.e.Submit(task.ID, "w9", "late"); err != nil && !errors.Is(err, ErrTaskCompleted) {
			t.Fatal(err)
		}
	}
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	all, cursor := drainFeed(t, env.e, alpha.ID, "")
	env.close()
	env = openSnapEnv(t, dir, storage.SyncNever, true, &CheckpointOptions{})
	restored, _ := drainFeed(t, env.e, alpha.ID, cursor)
	if len(restored) != len(all) {
		t.Fatalf("after snapshot restore the old cursor delivered %d runs, want all %d", len(restored), len(all))
	}
	assertFeedMatchesRuns(t, env.e, alpha.ID, restored)

	// Replica reset: a follower's cursor into its discarded state must
	// restart, and a long poll parked across the reset must wake.
	clock := vclock.NewSim()
	replica := NewEngine(clock)
	replica.SetReadOnly("")
	first, err := env.e.ExportState(env.j.Len())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.RestoreState(first); err != nil {
		t.Fatal(err)
	}
	_, cursor = drainFeed(t, replica, alpha.ID, "")
	parked := make(chan RunPage, 1)
	go func() {
		page, err := replica.RunsAfter(alpha.ID, cursor, time.Hour)
		if err != nil {
			t.Error(err)
		}
		parked <- page
	}()
	waitFor(t, "long poll parked", func() bool { return clock.Waiters() == 1 })
	second, err := env.e.ExportState(env.j.Len())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.ResetReplicaState(second); err != nil {
		t.Fatal(err)
	}
	select {
	case page := <-parked:
		if len(page.Runs) == 0 {
			t.Fatal("long poll woken by the reset returned nothing, want a restart from the beginning")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll parked across a replica reset never woke")
	}
	reset, _ := drainFeed(t, replica, alpha.ID, cursor)
	if len(reset) != len(all) {
		t.Fatalf("after replica reset the old cursor delivered %d runs, want all %d", len(reset), len(all))
	}
	assertFeedMatchesRuns(t, replica, alpha.ID, reset)
}

// waitFor polls cond in wall time (the engine under test runs on a Sim
// clock the test itself advances).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFeedLongPollOnSimClock: an empty read long-polls — a submit wakes
// it at once, and without one it returns empty exactly when the Sim
// clock passes the wait. The feed's obs families track both.
func TestFeedLongPollOnSimClock(t *testing.T) {
	clock := vclock.NewSim()
	reg := obs.New()
	e, err := NewEngineOpts(EngineOptions{Clock: clock, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.EnsureProject(ProjectSpec{Name: "lp", Redundancy: 2})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := e.AddTasks(p.ID, []TaskSpec{{ExternalID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	_, cursor := drainFeed(t, e, p.ID, "")

	poll := func(cursor string, wait time.Duration) <-chan RunPage {
		ch := make(chan RunPage, 1)
		go func() {
			page, err := e.RunsAfter(p.ID, cursor, wait)
			if err != nil {
				t.Error(err)
			}
			ch <- page
		}()
		waitFor(t, "long poll parked", func() bool { return e.m.feedWaiting.Value() == 1 })
		return ch
	}

	// A submit wakes the parked read without simulated time moving.
	woken := poll(cursor, time.Minute)
	run, err := e.Submit(tasks[0].ID, "w1", "yes")
	if err != nil {
		t.Fatal(err)
	}
	var page RunPage
	select {
	case page = <-woken:
	case <-time.After(10 * time.Second):
		t.Fatal("submit did not wake the long poll")
	}
	if len(page.Runs) != 1 || page.Runs[0] != run {
		t.Fatalf("woken page = %+v, want the submitted run %+v", page.Runs, run)
	}

	// Nothing new: the read returns empty once the wait elapses, not
	// before, and its cursor stays put.
	idle := poll(page.Next, 5*time.Second)
	clock.Advance(4 * time.Second)
	select {
	case got := <-idle:
		t.Fatalf("long poll returned %+v before its wait elapsed", got)
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(time.Second)
	select {
	case got := <-idle:
		if len(got.Runs) != 0 || got.More || got.Next != page.Next {
			t.Fatalf("expired long poll = %+v, want empty at cursor %q", got, page.Next)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll did not return after its wait on the Sim clock")
	}
	waitFor(t, "waiting gauge back to 0", func() bool { return e.m.feedWaiting.Value() == 0 })
	if got := e.m.feedRuns.Value(); got != 1 {
		t.Fatalf("feed runs counter = %d, want 1", got)
	}
	if got := e.m.feedRequests.Value(); got != 3 {
		t.Fatalf("feed requests counter = %d, want 3", got)
	}
}

// TestFeedLongPollOnVirtualClock: a Virtual clock cannot block, so an
// empty read parks in wall time — without moving the engine's clock, so a
// read never shifts lease expiry or run stamps — and still wakes on a
// submit.
func TestFeedLongPollOnVirtualClock(t *testing.T) {
	clock := vclock.NewVirtual()
	e, err := NewEngineOpts(EngineOptions{Clock: clock, Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.EnsureProject(ProjectSpec{Name: "virtual", Redundancy: 2})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := e.AddTasks(p.ID, []TaskSpec{{ExternalID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	_, cursor := drainFeed(t, e, p.ID, "")

	before := clock.Peek()
	start := time.Now()
	page, err := e.RunsAfter(p.ID, cursor, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Runs) != 0 {
		t.Fatalf("idle long poll = %+v, want empty", page)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("idle long poll returned after %v, before its wait", waited)
	}
	if got := clock.Peek(); !got.Equal(before) {
		t.Fatalf("long poll moved the engine clock from %v to %v", before, got)
	}

	woken := make(chan RunPage, 1)
	go func() {
		page, err := e.RunsAfter(p.ID, cursor, time.Minute)
		if err != nil {
			t.Error(err)
		}
		woken <- page
	}()
	waitFor(t, "long poll parked", func() bool { return e.m.feedWaiting.Value() == 1 })
	run, err := e.Submit(tasks[0].ID, "w1", "yes")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case page = <-woken:
	case <-time.After(10 * time.Second):
		t.Fatal("submit did not wake the long poll")
	}
	if len(page.Runs) != 1 || page.Runs[0] != run {
		t.Fatalf("woken page = %+v, want the submitted run %+v", page.Runs, run)
	}
}

// TestFeedPagesOverHTTP: pages are bounded and the cursor continues
// across them, over the wire exactly as in process; bad input maps onto
// the platform's typed errors; a long poll through the server wakes on a
// submit.
func TestFeedPagesOverHTTP(t *testing.T) {
	e := NewEngine(vclock.NewWall())
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, srv.Client())

	n := RunPageLimit + 76
	p, err := c.EnsureProject(ProjectSpec{Name: "pages", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]TaskSpec, n)
	for i := range specs {
		specs[i] = TaskSpec{ExternalID: fmt.Sprintf("t-%d", i)}
	}
	tasks, err := e.AddTasks(p.ID, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if _, err := e.Submit(task.ID, "w", "v"); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.RunsAfter(p.ID, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Runs) != RunPageLimit || !first.More {
		t.Fatalf("first page: %d runs, more=%v; want %d, true", len(first.Runs), first.More, RunPageLimit)
	}
	second, err := c.RunsAfter(p.ID, first.Next, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Runs) != n-RunPageLimit || second.More {
		t.Fatalf("second page: %d runs, more=%v; want %d, false", len(second.Runs), second.More, n-RunPageLimit)
	}
	assertFeedMatchesRuns(t, c, p.ID, append(first.Runs, second.Runs...))

	if _, err := c.RunsAfter(p.ID+1000, "", 0); !errors.Is(err, ErrUnknownProject) {
		t.Fatalf("unknown project: err = %v, want ErrUnknownProject", err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/api/projects/%d/runs?wait=soon", srv.URL, p.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed wait: HTTP %d, want 400", resp.StatusCode)
	}

	more, err := e.AddTasks(p.ID, []TaskSpec{{ExternalID: "late"}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan RunPage, 1)
	go func() {
		page, err := c.RunsAfter(p.ID, second.Next, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- page
	}()
	// Let the request park server-side before submitting.
	waitFor(t, "long poll parked", func() bool {
		e.mu.RLock()
		defer e.mu.RUnlock()
		l := e.feeds[p.ID]
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.wake != nil
	})
	start := time.Now()
	run, err := e.Submit(more[0].ID, "w", "late")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case page := <-done:
		if len(page.Runs) != 1 || page.Runs[0].ID != run.ID {
			t.Fatalf("long poll over HTTP returned %+v, want run %d", page.Runs, run.ID)
		}
		if waited := time.Since(start); waited > 4*time.Second {
			t.Fatalf("long poll returned after %v: woke on its deadline, not the submit", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll over HTTP never returned")
	}
}

// TestFeedConformance: the in-process and HTTP bindings serve the same
// feed for the same history.
func TestFeedConformance(t *testing.T) {
	forEachClient(t, func(t *testing.T, c Client) {
		p, err := c.EnsureProject(ProjectSpec{Name: "conf", Redundancy: 2})
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := c.AddTasks(p.ID, []TaskSpec{{ExternalID: "a"}, {ExternalID: "b"}})
		if err != nil {
			t.Fatal(err)
		}
		empty, cursor := drainFeed(t, c, p.ID, "")
		if len(empty) != 0 {
			t.Fatalf("fresh project feed = %+v, want empty", empty)
		}
		for _, w := range []string{"w1", "w2"} {
			for _, task := range tasks {
				if _, err := c.Submit(task.ID, w, "yes"); err != nil {
					t.Fatal(err)
				}
			}
		}
		tail, _ := drainFeed(t, c, p.ID, cursor)
		all, _ := drainFeed(t, c, p.ID, "")
		if fmt.Sprint(runIDs(tail)) != fmt.Sprint(runIDs(all)) {
			t.Fatalf("cursor tail %v differs from the full feed %v", runIDs(tail), runIDs(all))
		}
		assertFeedMatchesRuns(t, c, p.ID, all)
	})
}
