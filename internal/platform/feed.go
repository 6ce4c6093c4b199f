package platform

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/vclock"
)

// The run feed is the push side of answer collection: every project keeps
// an append-only log of its accepted runs in the order they became
// visible, and RunsAfter pages through it from an opaque cursor. A
// consumer that follows the cursor does work proportional to the answers
// that arrived, instead of re-listing every task and fetching each task's
// runs (the polling pattern the feed replaced).
//
// Guarantees:
//
//   - Never skips. A cursor is (engine incarnation, project, position in
//     this engine's log). The incarnation is drawn fresh for every Engine
//     instance and again on replica reset, so a cursor minted by another
//     node (failover), another process (restart, snapshot restore) or a
//     discarded state (ResetReplicaState) is not recognised, and the feed
//     restarts from the beginning of the project's log. Consumers dedupe
//     by run id.
//   - Per-task order equals Runs(taskID) order: a run enters the log in
//     the same stripe-locked step that makes it visible to Runs.
//   - Pages are bounded (RunPageLimit); Next continues across them and
//     More says another page is already waiting.

// RunPageLimit bounds how many runs one RunsAfter page carries.
const RunPageLimit = 1024

// maxFeedWait caps the long-poll wait a server honours on one feed
// request, well inside the HTTP client's default 30s request timeout.
const maxFeedWait = 10 * time.Second

// RunPage is one page of a project's run feed.
type RunPage struct {
	// Runs are the runs that became visible after the request's cursor,
	// in visibility order (per task: Runs order).
	Runs []TaskRun `json:"runs"`
	// Next is the cursor to pass to the following RunsAfter call.
	Next string `json:"next"`
	// More reports that the page hit RunPageLimit with further runs
	// already visible: ask again without pausing.
	More bool `json:"more,omitempty"`
}

// runLog is one project's feed: its accepted runs in visibility order.
// Appends take only this project's lock, never an engine-wide one, and
// cost a nil check when no long poll is waiting.
type runLog struct {
	mu   sync.Mutex
	runs []*TaskRun
	wake chan struct{} // closed by the next append; nil while nobody waits
}

// append publishes r to the feed and wakes any waiting long polls.
// Callers hold the run's stripe lock (with e.mu shared) or e.mu
// exclusively, so per task the log order is the Runs order.
func (l *runLog) append(r *TaskRun) {
	l.mu.Lock()
	l.runs = append(l.runs, r)
	l.wakeLocked()
	l.mu.Unlock()
}

// wakeLocked releases every parked long poll. Callers hold l.mu.
func (l *runLog) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// newIncarnation draws an engine incarnation id. It only has to differ
// between engine instances: it never enters persisted state or the
// replicated history, so it draws on crypto/rand rather than an injected
// vclock.Rand (a seeded source would repeat across restarts of the same
// seed, which is exactly the collision the id exists to rule out).
func newIncarnation() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// feedCursor renders a cursor.
func feedCursor(incarnation string, projectID int64, pos int) string {
	return incarnation + "." + strconv.FormatInt(projectID, 10) + "." + strconv.Itoa(pos)
}

// cursorPos resolves a cursor against the current incarnation and
// project: the log position it names, or 0 (the beginning) when the
// cursor is empty, malformed, or minted elsewhere.
func cursorPos(cursor, incarnation string, projectID int64) int {
	inc, rest, ok := strings.Cut(cursor, ".")
	if !ok || inc != incarnation {
		return 0
	}
	pid, p, ok := strings.Cut(rest, ".")
	if !ok || pid != strconv.FormatInt(projectID, 10) {
		return 0
	}
	pos, err := strconv.Atoi(p)
	if err != nil || pos < 0 {
		return 0
	}
	return pos
}

// RunsAfter implements Client: the project's runs that became visible
// after cursor ("" = from the beginning), at most RunPageLimit of them.
// When nothing is new it waits up to wait for the next run, without
// moving the engine's clock (vclock.Timeout).
func (e *Engine) RunsAfter(projectID int64, cursor string, wait time.Duration) (RunPage, error) {
	return e.runsAfter(projectID, cursor, wait, nil)
}

// runsAfter is RunsAfter with a cancel channel (the HTTP layer passes the
// request context, so a client that hangs up frees its long poll).
func (e *Engine) runsAfter(projectID int64, cursor string, wait time.Duration, cancel <-chan struct{}) (RunPage, error) {
	e.m.feedRequests.Inc()
	var deadline <-chan time.Time
	for {
		// The log, the incarnation and the wake registration are read
		// under one shared registry hold: a replica reset (exclusive)
		// either happens before, and we see the new log, or after, and
		// its release wakes us.
		e.mu.RLock()
		l, ok := e.feeds[projectID]
		if !ok {
			e.mu.RUnlock()
			return RunPage{}, ErrUnknownProject
		}
		inc := e.incarnation
		pos := cursorPos(cursor, inc, projectID)
		l.mu.Lock()
		n := len(l.runs)
		if pos > n {
			// Unreachable with a matching incarnation; restart rather
			// than wait for a position this log never handed out.
			pos = 0
		}
		if pos < n || wait <= 0 {
			end := min(n, pos+RunPageLimit)
			// The pointers below n are immutable once appended; copy the
			// records after dropping the locks.
			window := l.runs[pos:end]
			l.mu.Unlock()
			e.mu.RUnlock()
			page := RunPage{Runs: make([]TaskRun, len(window)), Next: feedCursor(inc, projectID, end), More: end < n}
			for i, r := range window {
				page.Runs[i] = *r
			}
			e.m.feedRuns.Add(uint64(len(window)))
			return page, nil
		}
		if l.wake == nil {
			l.wake = make(chan struct{})
		}
		wake := l.wake
		l.mu.Unlock()
		e.mu.RUnlock()
		if deadline == nil {
			deadline = vclock.Timeout(e.clock, wait)
		}
		e.m.feedWaiting.Add(1)
		select {
		case <-wake:
		case <-deadline:
			wait = 0 // one last read, then return what is there
		case <-cancel:
			wait = 0
		}
		e.m.feedWaiting.Add(-1)
	}
}

// resetFeeds discards every project feed and draws a new incarnation, so
// cursors into the discarded state restart instead of skipping. Callers
// hold e.mu exclusively.
func (e *Engine) resetFeeds() {
	// Parked long polls re-read against the new incarnation instead of
	// sleeping out their wait on a log nobody appends to any more.
	for _, l := range e.feeds {
		l.mu.Lock()
		l.wakeLocked()
		l.mu.Unlock()
	}
	e.feeds = make(map[int64]*runLog)
	e.incarnation = newIncarnation()
}

// ReadFeed reads projectID's feed from cursor to its current end without
// waiting, passing every run to visit in page order, duplicates included
// (a checker needs to see them). It returns the cursor after the last
// page read, also when a later page fails.
func ReadFeed(c Client, projectID int64, cursor string, visit func(TaskRun)) (string, error) {
	for {
		page, err := c.RunsAfter(projectID, cursor, 0)
		if err != nil {
			return cursor, err
		}
		for _, r := range page.Runs {
			visit(r)
		}
		cursor = page.Next
		if !page.More {
			return cursor, nil
		}
	}
}

// RunFeed is a consumer's place in one project's feed: the cursor and the
// ids of the runs it has passed on. A feed that restarts from the
// beginning (a cursor the serving node does not recognise) re-sends runs;
// RunFeed passes each run on once.
type RunFeed struct {
	projectID int64
	cursor    string
	seen      map[int64]bool
}

// NewRunFeed starts a consumer at the beginning of projectID's feed.
func NewRunFeed(projectID int64) *RunFeed {
	return &RunFeed{projectID: projectID, seen: map[int64]bool{}}
}

// Cursor is where the next RunsAfter call should read from.
func (f *RunFeed) Cursor() string { return f.cursor }

// Take passes the page's runs not passed on before to visit, in page
// order, and moves the cursor past the page.
func (f *RunFeed) Take(page RunPage, visit func(TaskRun)) {
	for _, r := range page.Runs {
		f.once(r, visit)
	}
	f.cursor = page.Next
}

// Drain reads everything visible now, without waiting, as Take does.
func (f *RunFeed) Drain(c Client, visit func(TaskRun)) error {
	var err error
	f.cursor, err = ReadFeed(c, f.projectID, f.cursor, func(r TaskRun) { f.once(r, visit) })
	return err
}

func (f *RunFeed) once(r TaskRun, visit func(TaskRun)) {
	if !f.seen[r.ID] {
		f.seen[r.ID] = true
		visit(r)
	}
}
