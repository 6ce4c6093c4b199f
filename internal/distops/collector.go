package distops

import (
	"time"

	"repro/internal/platform"
	"repro/internal/vclock"
)

// feedWait is how long one collector round long-polls the shard's run
// feed when nothing new has arrived.
const feedWait = time.Second

// taskIdent maps a platform task back to its logical identity.
type taskIdent struct {
	item       string
	rowKey     string
	redundancy int
}

// collector streams one shard's answers as they land: it follows the
// shard project's run feed (platform.Client.RunsAfter) with one
// platform.RunFeed and emits each run it has not seen as a Verdict, so a
// round costs work proportional to the answers that arrived. The feed
// delivers each task's runs in Runs order, so per task the stream is a
// stable, growing prefix of Runs — the streamed count is what runShard
// reconciles against Collect.
type collector struct {
	client    platform.Client
	projectID int64
	partition string
	table     string
	poll      time.Duration
	clock     vclock.Clock
	info      map[int64]taskIdent
	emit      func(Verdict)
	streamed  map[int64]int // task id → runs already emitted

	feed *platform.RunFeed
	// open counts tasks still short of their redundancy.
	open int
}

// newCollector readies c (its configuration fields set) for run.
func newCollector(c collector) *collector {
	c.streamed = map[int64]int{}
	c.feed = platform.NewRunFeed(c.projectID)
	for _, id := range c.info {
		if id.redundancy > 0 {
			c.open++
		}
	}
	return &c
}

// feedResult is one RunsAfter call's outcome.
type feedResult struct {
	page platform.RunPage
	err  error
}

// run follows the feed until every task reaches its redundancy or stop
// closes. Each round long-polls the feed when nothing is new, then
// pauses for the poll interval unless another page is already waiting:
// after runs, the pause lets the next request carry a batch; after an
// empty round, it keeps a server that returns early from being asked
// back to back.
// Stop never waits out an in-flight long poll: the collector abandons it
// and finishes with a non-waiting sweep from its last cursor, so nothing
// visible at stop time is dropped. (platform.Client takes no context, so
// the abandoned call's goroutine runs until its RunsAfter returns — at
// most feedWait — and its result lands in the buffered channel unread.)
func (c *collector) run(stop <-chan struct{}) error {
	for c.open > 0 {
		ch := make(chan feedResult, 1)
		cursor := c.feed.Cursor()
		go func() {
			page, err := c.client.RunsAfter(c.projectID, cursor, feedWait)
			ch <- feedResult{page, err}
		}()
		var res feedResult
		select {
		case <-stop:
			return c.feed.Drain(c.client, c.take)
		case res = <-ch:
		}
		if res.err != nil {
			return res.err
		}
		c.feed.Take(res.page, c.take)
		if res.page.More {
			continue
		}
		select {
		case <-stop:
			return c.feed.Drain(c.client, c.take)
		case <-c.clock.After(c.poll):
		}
	}
	return nil
}

// take emits one newly seen run.
func (c *collector) take(r platform.TaskRun) {
	id := c.info[r.TaskID]
	c.emit(Verdict{
		Partition: c.partition,
		Table:     c.table,
		Item:      id.item,
		RowKey:    id.rowKey,
		TaskID:    r.TaskID,
		RunID:     r.ID,
		Worker:    r.WorkerID,
		Value:     r.Answer,
	})
	c.streamed[r.TaskID]++
	if c.streamed[r.TaskID] == id.redundancy {
		c.open--
	}
}
