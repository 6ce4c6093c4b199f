package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
	"repro/internal/quality"
	"repro/internal/storage"
)

// CrowdData is the paper's tabular dataset abstraction. Rows are created
// from input objects; Publish/Collect fill the persisted task/result
// columns; quality-control methods fill derived columns.
//
// CrowdData is not safe for concurrent use: like the paper's Python API it
// models a sequential experiment script.
type CrowdData struct {
	ctx       *CrowdContext
	name      string
	presenter *Presenter
	rows      []*Row
	index     map[string]int // row key → index in rows

	// Collect's place in each project's run feed, kept between calls so
	// a Collect reads only the runs that arrived since the last one.
	feeds   map[string]*platform.RunFeed // project name → feed
	pending map[int64][]platform.TaskRun // incomplete row's task id → its runs so far
}

// Name returns the table name.
func (cd *CrowdData) Name() string { return cd.name }

// ProjectName is the platform project backing this table.
func (cd *CrowdData) ProjectName() string { return "reprowd-" + cd.name }

// Rows returns the table's rows in insertion order. The slice is shared;
// callers must not mutate it.
func (cd *CrowdData) Rows() []*Row { return cd.rows }

// Len returns the number of rows.
func (cd *CrowdData) Len() int { return len(cd.rows) }

// Row returns the row with the given key.
func (cd *CrowdData) Row(key string) (*Row, bool) {
	i, ok := cd.index[key]
	if !ok {
		return nil, false
	}
	return cd.rows[i], true
}

// SetPresenter chooses the task UI (step 2 of the paper's example). It
// returns cd for chaining, mirroring the original API's fluent style.
func (cd *CrowdData) SetPresenter(p Presenter) *CrowdData {
	cd.presenter = &p
	return cd
}

// Presenter returns the configured presenter, if any.
func (cd *CrowdData) Presenter() (Presenter, bool) {
	if cd.presenter == nil {
		return Presenter{}, false
	}
	return *cd.presenter, true
}

// appendObjects adds rows for objects, loading any cached columns.
func (cd *CrowdData) appendObjects(objects []Object) error {
	for _, obj := range objects {
		key := cd.ctx.keyFunc(obj)
		if key == "" || !safeKeyRE.MatchString(key) {
			return fmt.Errorf("core: invalid row key %q (keys must match [A-Za-z0-9._:=+-]+)", key)
		}
		if _, dup := cd.index[key]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
		}
		row := &Row{Key: key, Object: obj}
		if err := cd.loadTask(row); err != nil {
			return err
		}
		if err := cd.loadResult(row); err != nil {
			return err
		}
		cd.index[key] = len(cd.rows)
		cd.rows = append(cd.rows, row)
	}
	return nil
}

// Extend appends more objects to the table (the paper's Figure 3: Ally
// grows Bob's experiment). Objects whose key is already present are
// skipped, so extending is idempotent. It returns the number of rows added.
func (cd *CrowdData) Extend(objects []Object) (int, error) {
	var fresh []Object
	for _, obj := range objects {
		if _, dup := cd.index[cd.ctx.keyFunc(obj)]; !dup {
			fresh = append(fresh, obj)
		}
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	if err := cd.appendObjects(fresh); err != nil {
		return 0, err
	}
	return len(fresh), cd.ctx.appendOp(cd.name, "extend", "", map[string]string{
		"rows": strconv.Itoa(len(fresh)),
	})
}

func (cd *CrowdData) loadTask(row *Row) error {
	buf, ok, err := cd.ctx.db.Get([]byte(taskKey(cd.name, row.Key)))
	if err != nil || !ok {
		return err
	}
	task, err := unmarshalTask(buf)
	if err != nil {
		return err
	}
	row.Task = task
	return nil
}

func (cd *CrowdData) loadResult(row *Row) error {
	buf, ok, err := cd.ctx.db.Get([]byte(resultKey(cd.name, row.Key)))
	if err != nil || !ok {
		return err
	}
	res, err := unmarshalResult(buf)
	if err != nil {
		return err
	}
	row.Result = res
	return nil
}

// PublishOptions tune Publish.
type PublishOptions struct {
	// Redundancy is the answers-per-task target; zero uses the context
	// default (3).
	Redundancy int
	// Priority orders tasks on the platform (higher first); optional.
	Priority func(row *Row) float64
	// BatchSize splits task creation into AddTasks calls of at most this
	// many specs. Zero sends everything in one call. Bounding the batch
	// keeps request bodies under proxy caps when publishing through the
	// gateway.
	BatchSize int
	// Concurrency is how many batches may be in flight at once (only
	// meaningful with BatchSize > 0). Zero or one publishes batches
	// sequentially. The platform deduplicates on the row key, so
	// concurrent batches stay idempotent.
	Concurrency int
}

// Publish creates platform tasks for every row that does not already have
// one (step 3 of the paper's example) and persists the task column. It is
// idempotent at two levels: rows with a persisted task column are skipped
// outright, and the platform deduplicates on the row key, so a crash
// between the platform call and the database write cannot double-publish.
// It returns the number of rows newly published.
func (cd *CrowdData) Publish(opts PublishOptions) (int, error) {
	if cd.presenter == nil {
		return 0, ErrNoPresenter
	}
	if err := cd.presenter.Validate(); err != nil {
		return 0, err
	}
	red := opts.Redundancy
	if red <= 0 {
		red = cd.ctx.defRed
	}

	var pending []*Row
	for _, row := range cd.rows {
		if row.Task == nil {
			pending = append(pending, row)
		}
	}
	if len(pending) == 0 {
		return 0, nil
	}

	project, err := cd.ctx.client.EnsureProject(platform.ProjectSpec{
		Name:       cd.ProjectName(),
		Presenter:  cd.presenter.Name,
		Redundancy: red,
	})
	if err != nil {
		return 0, fmt.Errorf("core: ensure project: %w", err)
	}

	specs := make([]platform.TaskSpec, 0, len(pending))
	for _, row := range pending {
		spec := platform.TaskSpec{
			ExternalID: row.Key,
			Payload:    row.Object,
			Redundancy: red,
		}
		if opts.Priority != nil {
			spec.Priority = opts.Priority(row)
		}
		specs = append(specs, spec)
	}
	tasks, err := cd.addTasks(project.ID, specs, opts)
	if err != nil {
		return 0, err
	}
	if len(tasks) != len(pending) {
		return 0, fmt.Errorf("core: platform returned %d tasks for %d specs", len(tasks), len(pending))
	}

	// Persist the task column for all published rows atomically.
	batch := storage.NewBatch()
	for i, row := range pending {
		t := tasks[i]
		row.Task = &TaskInfo{
			PlatformTaskID: t.ID,
			ProjectName:    project.Name,
			Presenter:      cd.presenter.Name,
			Redundancy:     t.Redundancy,
			PublishedAt:    t.Created,
			Payload:        row.Object,
		}
		buf, err := marshalTask(row.Task)
		if err != nil {
			return 0, err
		}
		batch.Put([]byte(taskKey(cd.name, row.Key)), buf)
	}
	if err := cd.ctx.db.Apply(batch); err != nil {
		return 0, err
	}
	if err := cd.ctx.db.Sync(); err != nil {
		return 0, err
	}
	err = cd.ctx.appendOp(cd.name, "publish", "", map[string]string{
		"rows":       strconv.Itoa(len(pending)),
		"redundancy": strconv.Itoa(red),
		"presenter":  cd.presenter.Name,
	})
	return len(pending), err
}

// addTasks fans task creation out to the platform, honoring the batch
// size and concurrency bounds. Results land at their spec's offset, so
// the returned slice lines up with specs regardless of completion
// order; AddTasks returns tasks in spec order per call.
func (cd *CrowdData) addTasks(projectID int64, specs []platform.TaskSpec, opts PublishOptions) ([]platform.Task, error) {
	if opts.BatchSize <= 0 || opts.BatchSize >= len(specs) {
		tasks, err := cd.ctx.client.AddTasks(projectID, specs)
		if err != nil {
			return nil, fmt.Errorf("core: add tasks: %w", err)
		}
		return tasks, nil
	}
	type chunk struct {
		off   int
		specs []platform.TaskSpec
	}
	var chunks []chunk
	for off := 0; off < len(specs); off += opts.BatchSize {
		end := off + opts.BatchSize
		if end > len(specs) {
			end = len(specs)
		}
		chunks = append(chunks, chunk{off: off, specs: specs[off:end]})
	}
	workers := opts.Concurrency
	if workers <= 1 {
		workers = 1
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}

	results := make([]platform.Task, len(specs))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(chunks) {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				c := chunks[i]
				tasks, err := cd.ctx.client.AddTasks(projectID, c.specs)
				if err == nil && len(tasks) != len(c.specs) {
					err = fmt.Errorf("core: platform returned %d tasks for %d specs", len(tasks), len(c.specs))
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("core: add tasks batch at %d: %w", c.off, err)
					}
					mu.Unlock()
					return
				}
				copy(results[c.off:], tasks)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// ProjectID resolves the backing platform project id.
func (cd *CrowdData) ProjectID() (int64, error) {
	p, ok, err := cd.ctx.client.FindProject(cd.ProjectName())
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNotPublished
	}
	return p.ID, nil
}

// CollectReport summarizes a Collect call.
type CollectReport struct {
	// Published is the number of rows with a task column.
	Published int
	// Complete is the number of rows whose result column reached its
	// redundancy.
	Complete int
	// NewAnswers is the number of answers fetched from the platform in
	// this call (cached rows contribute zero).
	NewAnswers int
}

// Collect fetches crowd answers into the result column (step 4). Rows whose
// result column is already complete are served from the database and never
// touch the platform — this is the rerun path. Incomplete rows are
// refreshed from their project's run feed: the first Collect reads it from
// the beginning, later ones only the runs that arrived since (one
// RunsAfter per page per project, not one call per row); they become
// complete once the platform reports redundancy answers. It is the
// caller's business to ensure workers are answering (in simulations, drain
// a crowd.Pool between Publish and Collect).
func (cd *CrowdData) Collect() (CollectReport, error) {
	var report CollectReport
	var anyTask bool
	var stale []string       // projects backing incomplete rows
	open := map[int64]bool{} // their task ids
	for _, row := range cd.rows {
		if row.Task == nil {
			continue
		}
		anyTask = true
		if row.Result == nil || !row.Result.Complete {
			if name := cd.taskProject(row.Task); !slices.Contains(stale, name) {
				stale = append(stale, name)
			}
			open[row.Task.PlatformTaskID] = true
		}
	}
	if !anyTask {
		return report, ErrNotPublished
	}
	for _, name := range stale {
		if err := cd.fetchRuns(name, open); err != nil {
			return report, err
		}
	}

	batch := storage.NewBatch()
	for _, row := range cd.rows {
		if row.Task == nil {
			continue
		}
		report.Published++
		if row.Result != nil && row.Result.Complete {
			report.Complete++
			continue
		}
		taskRuns := cd.pending[row.Task.PlatformTaskID]
		answers := make([]Answer, 0, len(taskRuns))
		for _, r := range taskRuns {
			answers = append(answers, Answer{
				Worker:      r.WorkerID,
				Value:       r.Answer,
				AssignedAt:  r.Assigned,
				SubmittedAt: r.Finished,
				RunID:       r.ID,
			})
		}
		prev := 0
		if row.Result != nil {
			prev = len(row.Result.Answers)
		}
		res := &ResultInfo{
			Answers:     answers,
			CollectedAt: cd.ctx.clock.Now(),
			Complete:    len(answers) >= row.Task.Redundancy,
		}
		if len(answers) != prev || res.Complete {
			buf, err := marshalResult(res)
			if err != nil {
				return report, err
			}
			batch.Put([]byte(resultKey(cd.name, row.Key)), buf)
			report.NewAnswers += len(answers) - prev
			row.Result = res
		}
		if res.Complete {
			report.Complete++
			delete(cd.pending, row.Task.PlatformTaskID)
		}
	}
	if batch.Len() > 0 {
		if err := cd.ctx.db.Apply(batch); err != nil {
			return report, err
		}
		if err := cd.ctx.db.Sync(); err != nil {
			return report, err
		}
		if err := cd.ctx.appendOp(cd.name, "collect", "", map[string]string{
			"new_answers": strconv.Itoa(report.NewAnswers),
			"complete":    strconv.Itoa(report.Complete),
		}); err != nil {
			return report, err
		}
	}
	return report, nil
}

// taskProject names the platform project a row's task lives in.
func (cd *CrowdData) taskProject(t *TaskInfo) string {
	if t.ProjectName != "" {
		return t.ProjectName
	}
	return cd.ProjectName()
}

// fetchRuns reads the runs that arrived on a project's feed since the
// last Collect, keeping those of the open tasks in cd.pending (in Runs
// order). A feed that restarts from the beginning (a leader failover)
// re-sends runs; the RunFeed passes each on once.
func (cd *CrowdData) fetchRuns(projectName string, open map[int64]bool) error {
	feed := cd.feeds[projectName]
	if feed == nil {
		p, ok, err := cd.ctx.client.FindProject(projectName)
		if err != nil {
			return fmt.Errorf("core: find project %s: %w", projectName, err)
		}
		if !ok {
			return fmt.Errorf("core: project %s: %w", projectName, platform.ErrUnknownProject)
		}
		if cd.feeds == nil {
			cd.feeds = map[string]*platform.RunFeed{}
			cd.pending = map[int64][]platform.TaskRun{}
		}
		feed = platform.NewRunFeed(p.ID)
		cd.feeds[projectName] = feed
	}
	err := feed.Drain(cd.ctx.client, func(r platform.TaskRun) {
		if open[r.TaskID] {
			cd.pending[r.TaskID] = append(cd.pending[r.TaskID], r)
		}
	})
	if err != nil {
		return fmt.Errorf("core: fetch runs for project %s: %w", projectName, err)
	}
	return nil
}

// CollectUntilComplete polls Collect until every published row reaches its
// redundancy, sleeping wait between rounds (on the context clock), for at
// most maxRounds rounds. Against a live platform this is the blocking
// get_results of the paper's Figure 2; in simulations workers answer
// between rounds (or instantly, making the first round complete). It
// returns the final report and whether completion was reached.
func (cd *CrowdData) CollectUntilComplete(maxRounds int, wait time.Duration) (CollectReport, bool, error) {
	if maxRounds <= 0 {
		maxRounds = 1
	}
	var rep CollectReport
	for round := 0; round < maxRounds; round++ {
		var err error
		rep, err = cd.Collect()
		if err != nil {
			return rep, false, err
		}
		if rep.Complete == rep.Published {
			return rep, true, nil
		}
		cd.ctx.clock.Sleep(wait)
	}
	return rep, false, nil
}

// Votes converts the result column into the quality package's input shape:
// row key → votes.
func (cd *CrowdData) Votes() map[string][]quality.Vote {
	out := make(map[string][]quality.Vote, len(cd.rows))
	for _, row := range cd.rows {
		if row.Result == nil {
			continue
		}
		vs := make([]quality.Vote, 0, len(row.Result.Answers))
		for _, a := range row.Result.Answers {
			vs = append(vs, quality.Vote{Worker: a.Worker, Value: a.Value})
		}
		if len(vs) > 0 {
			out[row.Key] = vs
		}
	}
	return out
}

// Aggregate runs a quality-control algorithm over the result column and
// stores each row's decision in the named derived column (step 5). Derived
// columns are deliberately not persisted: they are pure recomputable
// functions of the persisted state, exactly as the paper prescribes.
func (cd *CrowdData) Aggregate(col string, agg quality.Aggregator) error {
	votes := cd.Votes()
	if len(votes) == 0 {
		return ErrNoResults
	}
	decisions := agg.Aggregate(votes)
	for _, row := range cd.rows {
		if d, ok := decisions[row.Key]; ok {
			row.setDerived(col, d.Value)
			row.setDerived(col+"_confidence", strconv.FormatFloat(d.Confidence, 'f', 4, 64))
		}
	}
	return nil
}

// MajorityVote fills col with the majority answer per row (the paper's
// step 5).
func (cd *CrowdData) MajorityVote(col string) error {
	return cd.Aggregate(col, quality.MajorityVote{})
}

// EM fills col using Dawid–Skene expectation maximization.
func (cd *CrowdData) EM(col string) error {
	return cd.Aggregate(col, quality.DawidSkene{})
}

// Clear removes this table's persisted columns and op log, resetting the
// in-memory rows to unpublished. The next Publish starts from scratch.
func (cd *CrowdData) Clear() error {
	if err := cd.ctx.DeleteTable(cd.name); err != nil {
		return err
	}
	if err := cd.ctx.ensureMeta(cd.name); err != nil {
		return err
	}
	for _, row := range cd.rows {
		row.Task = nil
		row.Result = nil
		row.Derived = nil
	}
	cd.feeds, cd.pending = nil, nil
	return nil
}

func marshalJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("core: encode: %w", err)
	}
	return b, nil
}
