package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// wantsFrames reports whether the peer negotiated the binary frame wire
// (platform's CRC-framed event codec) instead of legacy JSONL/JSON. New
// followers send the Accept header; old peers and curl get JSON, so the
// endpoints stay debuggable and mixed-version clusters keep replicating.
func wantsFrames(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), platform.FrameContentType)
}

// StreamEvent is one line of the stream response: a committed journal
// event and its sequence number. The stream body is newline-delimited
// JSON of these, in sequence order.
type StreamEvent struct {
	Seq   uint64         `json:"seq"`
	Event platform.Event `json:"event"`
}

// Stream response headers.
const (
	// HeaderFrontier carries the leader's journal length (the next
	// sequence to be assigned) at response time — the follower's lag
	// reference.
	HeaderFrontier = "X-Repl-Frontier"
	// HeaderSnapshotSeq carries a snapshot response's cut sequence.
	HeaderSnapshotSeq = "X-Repl-Snapshot-Seq"
	// HeaderReplEpoch carries the serving leader's fencing token on
	// stream and snapshot responses. A follower tracks the newest token
	// it has seen and refuses frames stamped with an older one — the
	// replication-path half of split-brain protection (the write path's
	// is platform.HeaderEpoch).
	HeaderReplEpoch = "X-Repl-Epoch"
)

// Defaults for the stream endpoint's query knobs.
const (
	defaultStreamWait = 10 * time.Second
	maxStreamWait     = 30 * time.Second
	defaultStreamMax  = 4096
	maxStreamMax      = 16384
)

// Leader serves a journaled engine's replication feed. It taps the
// journal's committed-event pipeline to learn the durable frontier and
// wake long-polling streams, and reads catch-up events straight from the
// journal's store — the journal is the replication log; nothing is
// duplicated.
type Leader struct {
	j     *platform.Journal
	db    *storage.DB
	clock vclock.Clock

	cancelTap func()

	mu       sync.Mutex
	frontier uint64        // next sequence the committed log will assign
	wake     chan struct{} // closed and replaced whenever frontier advances

	activeStreams  atomic.Int64
	eventsStreamed atomic.Uint64
}

// NewLeader binds a replication feed to a journal and its backing store,
// pacing long-poll waits on the wall clock. Close detaches the tap.
func NewLeader(j *platform.Journal, db *storage.DB) *Leader {
	return NewLeaderClock(j, db, nil)
}

// NewLeaderClock is NewLeader with an injected clock for the stream's
// long-poll deadlines (nil defaults to wall time). A simulated cluster
// passes its vclock.Sim so a "10s" poll window elapses in virtual time.
func NewLeaderClock(j *platform.Journal, db *storage.DB, clock vclock.Clock) *Leader {
	if clock == nil {
		clock = vclock.NewWall()
	}
	l := &Leader{j: j, db: db, clock: clock, wake: make(chan struct{})}
	l.frontier = j.Len()
	l.cancelTap = j.AddTap(l.observe)
	if reg := j.Metrics(); reg != nil {
		reg.GaugeFunc("reprowd_repl_active_streams",
			"Replication stream long polls currently being served.",
			func() float64 { return float64(l.activeStreams.Load()) })
		reg.CounterFunc("reprowd_repl_streamed_events_total",
			"Journal events shipped to followers over the replication stream.",
			l.eventsStreamed.Load)
		reg.GaugeFunc("reprowd_repl_frontier",
			"Leader's committed journal frontier (next sequence to assign).",
			func() float64 { f, _ := l.current(); return float64(f) })
	}
	return l
}

// Close detaches the journal tap. In-flight stream requests finish their
// current poll.
func (l *Leader) Close() {
	if l.cancelTap != nil {
		l.cancelTap()
		l.cancelTap = nil
	}
}

// observe is the journal committer's tap: advance the frontier and wake
// every waiting stream. O(1), called in sequence order after each flush.
func (l *Leader) observe(seq uint64, _ platform.Event, _ int) {
	l.mu.Lock()
	if seq+1 > l.frontier {
		l.frontier = seq + 1
		close(l.wake)
		l.wake = make(chan struct{})
	}
	l.mu.Unlock()
}

// current returns the committed frontier and the channel closed when it
// next advances.
func (l *Leader) current() (uint64, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frontier, l.wake
}

// errStop ends a collect scan that has filled its batch.
var errStop = errors.New("repl: batch full")

// collect reads up to max committed events starting at from into memory
// (the store scan holds a read lock, so events are never shipped to a
// slow client mid-scan). snapshotRequired is true when from precedes the
// journal's first live sequence — the events were folded into a snapshot.
func (l *Leader) collect(from uint64, max int) (evs []StreamEvent, snapshotRequired bool, err error) {
	if from < l.j.FirstSeq() {
		return nil, true, nil
	}
	next := from
	err = l.j.EventsFrom(from, func(seq uint64, ev platform.Event, _ int) error {
		if len(evs) >= max {
			return errStop
		}
		if seq != next {
			if len(evs) == 0 && seq > from {
				// Truncated between the FirstSeq check and the scan.
				return errStop
			}
			return fmt.Errorf("repl: journal gap at %d (want %d)", seq, next)
		}
		evs = append(evs, StreamEvent{Seq: seq, Event: ev})
		next++
		return nil
	})
	if err == errStop {
		err = nil
	}
	if err == nil && len(evs) == 0 && from < l.j.FirstSeq() {
		return nil, true, nil
	}
	return evs, false, err
}

// handleStream is GET /api/repl/stream?from=N[&wait=10s][&max=4096]: a
// long poll for committed events at or after from. The response is JSONL
// StreamEvents (possibly empty if the wait expired with nothing new),
// with HeaderFrontier reporting the leader's committed length. A from
// below the journal's truncation point gets 410 Gone with code
// "snapshot_required" — the follower must bootstrap from the snapshot.
func (l *Leader) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil && q.Get("from") != "" {
		httpError(w, http.StatusBadRequest, "bad_request", "malformed from sequence")
		return
	}
	wait := defaultStreamWait
	if s := q.Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "malformed wait duration")
			return
		}
		wait = min(max(d, 0), maxStreamWait)
	}
	limit := defaultStreamMax
	if s := q.Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad_request", "malformed max")
			return
		}
		limit = min(n, maxStreamMax)
	}

	l.activeStreams.Add(1)
	defer l.activeStreams.Add(-1)

	// Preflight before committing to a 200: the requested position must
	// still be live (a truncation mid-stream just ends the body; the
	// next poll surfaces the 410).
	if from < l.j.FirstSeq() {
		httpError(w, http.StatusGone, "snapshot_required", ErrSnapshotRequired.Error())
		return
	}
	// Headers go out immediately — the follower's client returns from its
	// round trip here and knows the link is up — then events stream into
	// the open body as they commit, until the first delivered batch or
	// the wait window ends. The frontier header is the commit position at
	// request time; the body may run past it.
	frontier, _ := l.current()
	binaryWire := wantsFrames(r)
	if binaryWire {
		w.Header().Set("Content-Type", platform.FrameContentType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set(HeaderFrontier, strconv.FormatUint(frontier, 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}

	enc := json.NewEncoder(w)
	var frame []byte // reused across events on the binary wire
	sent := 0
	deadline := l.clock.Now().Add(wait)
	for {
		evs, snapReq, err := l.collect(from, limit-sent)
		if err != nil || snapReq {
			return // body ends; the next poll gets the verdict as a status
		}
		if len(evs) > 0 {
			for i := range evs {
				se := &evs[i]
				var err error
				if binaryWire {
					frame = platform.AppendStreamFrame(frame[:0], se.Seq, &se.Event)
					_, err = w.Write(frame)
				} else {
					err = enc.Encode(se)
				}
				if err != nil {
					return // client went away
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			l.eventsStreamed.Add(uint64(len(evs)))
			sent += len(evs)
			from = evs[len(evs)-1].Seq + 1
			if sent >= limit {
				return
			}
		}
		frontier, wake := l.current()
		if frontier > from {
			continue // committed between collect and current; rescan
		}
		remaining := deadline.Sub(l.clock.Now())
		if remaining <= 0 {
			return
		}
		// The abandoned After channel (when wake or the request context
		// wins the select) fires at its deadline and is then garbage —
		// bounded by maxStreamWait, the same lifetime a time.After would
		// have had.
		select {
		case <-wake:
		case <-l.clock.After(remaining):
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleSnapshot is GET /api/repl/snapshot: the latest snapshot record's
// payload, verbatim (the deterministic binary engine state the
// checkpointer cut), with its cut sequence in HeaderSnapshotSeq. 404
// with code "no_snapshot" when the leader has never checkpointed — the
// follower then bootstraps from sequence zero.
func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	info, data, ok, err := storage.ReadSnapshot(l.db, platform.SnapshotPrefix)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no_snapshot", "leader has no snapshot yet")
		return
	}
	frontier, _ := l.current()
	if wantsFrames(r) {
		w.Header().Set("Content-Type", platform.FrameContentType)
		data = platform.AppendSnapshotFrame(nil, data)
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.Header().Set(HeaderSnapshotSeq, strconv.FormatUint(info.Seq, 10))
	w.Header().Set(HeaderFrontier, strconv.FormatUint(frontier, 10))
	w.Write(data)
}

// stats is the leader's replication view.
func (l *Leader) stats() platform.ReplStats {
	frontier, _ := l.current()
	return platform.ReplStats{
		Role:           RoleLeader,
		Ready:          true,
		AppliedSeq:     frontier,
		ActiveStreams:  l.activeStreams.Load(),
		EventsStreamed: l.eventsStreamed.Load(),
	}
}

// httpError writes the platform API's JSON error shape.
func httpError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}{Error: msg, Code: code})
}
