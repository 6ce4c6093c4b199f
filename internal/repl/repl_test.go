package repl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// leaderEnv is a journaled engine served over HTTP with the replication
// endpoints mounted — a complete leader, in-process.
type leaderEnv struct {
	t       *testing.T
	db      *storage.DB
	journal *platform.Journal
	engine  *platform.Engine
	cp      *platform.Checkpointer
	node    *Node
	hs      *httptest.Server
}

// newLeaderEnv builds a leader. checkpointEvery > 0 attaches a
// checkpointer cutting snapshots at that event cadence.
func newLeaderEnv(t *testing.T, checkpointEvery uint64) *leaderEnv {
	t.Helper()
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	journal, err := platform.OpenJournal(db)
	if err != nil {
		db.Close()
		t.Fatalf("open journal: %v", err)
	}
	engine, err := platform.NewEngineOpts(platform.EngineOptions{
		Clock:   vclock.NewVirtual(),
		Journal: journal,
	})
	if err != nil {
		db.Close()
		t.Fatalf("engine: %v", err)
	}
	env := &leaderEnv{t: t, db: db, journal: journal, engine: engine}
	if checkpointEvery > 0 {
		env.cp, err = platform.NewCheckpointer(engine, platform.CheckpointOptions{
			EveryEvents:     checkpointEvery,
			CompactMinBytes: 32 << 10,
		})
		if err != nil {
			db.Close()
			t.Fatalf("checkpointer: %v", err)
		}
	}
	env.node = NewLeaderNode(engine, journal, db)
	srv := platform.NewServer(engine)
	srv.Handle("/api/repl/", env.node.Handler())
	env.hs = httptest.NewServer(srv)
	t.Cleanup(func() {
		env.hs.Close()
		env.journal.Close()
		if env.cp != nil {
			env.cp.Close()
		}
		env.node.Close()
		env.db.Close()
	})
	return env
}

// buildHistory creates a redundancy-1 project named name with n tasks,
// each retired by one submission, and returns the project and the number
// of journal events this produced (1 project + task batches + n runs).
func buildHistory(t *testing.T, engine *platform.Engine, name string, n int) (platform.Project, uint64) {
	t.Helper()
	p, err := engine.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1})
	if err != nil {
		t.Fatalf("ensure project: %v", err)
	}
	const batch = 256
	batches := uint64(0)
	for off := 0; off < n; off += batch {
		end := off + batch
		if end > n {
			end = n
		}
		specs := make([]platform.TaskSpec, end-off)
		for i := range specs {
			specs[i] = platform.TaskSpec{
				ExternalID: fmt.Sprintf("%s-%d", name, off+i),
				Payload:    map[string]string{"q": fmt.Sprintf("item %d", off+i)},
			}
		}
		tasks, err := engine.AddTasks(p.ID, specs)
		if err != nil {
			t.Fatalf("add tasks: %v", err)
		}
		for i, task := range tasks {
			if _, err := engine.Submit(task.ID, fmt.Sprintf("w-%d", (off+i)%7), "yes"); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		batches++
	}
	return p, 1 + batches + uint64(n)
}

// waitLen waits for the journal's committed length to reach want (fast
// acks mean memory can run ahead of the committed log).
func waitLen(t *testing.T, j *platform.Journal, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("journal stuck at %d, want %d", j.Len(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// startFollower boots a replica of env with test-friendly poll settings.
func startFollower(t *testing.T, env *leaderEnv) *Follower {
	t.Helper()
	f, err := StartFollower(FollowerOptions{
		LeaderURL: env.hs.URL,
		Clock:     vclock.NewVirtual(),
		PollWait:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("start follower: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// waitReady waits for the follower to report readiness (requires one
// completed poll confirming the applied position covers the leader
// frontier).
func waitReady(t *testing.T, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := f.stats()
		if st.Ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never became ready: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustState exports an engine's state at seq.
func mustState(t *testing.T, e *platform.Engine, seq uint64) []byte {
	t.Helper()
	data, err := e.ExportState(seq)
	if err != nil {
		t.Fatalf("export state: %v", err)
	}
	return data
}

// TestFollowerBootstrapByteIdentical is the acceptance test: a follower
// started against a leader with >= 10k retired-task events reaches
// byte-identical engine state via snapshot + tail, and serves the read
// API with the leader's answers.
func TestFollowerBootstrapByteIdentical(t *testing.T) {
	env := newLeaderEnv(t, 1000)
	p, events := buildHistory(t, env.engine, "big", 10000)
	waitLen(t, env.journal, events)
	// Pin a final cut so the bootstrap demonstrably rides the snapshot
	// path (policy cuts already ran; this bounds the tail).
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	f := startFollower(t, env)
	if err := f.WaitFor(events, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	st := f.stats()
	if st.SnapshotSeq == 0 {
		t.Fatalf("follower bootstrapped without a snapshot (stats %+v)", st)
	}
	if tail := events - st.SnapshotSeq; tail > 2*1000 {
		t.Fatalf("bootstrap tail %d events; want <= 2x checkpoint interval", tail)
	}
	waitReady(t, f)

	if l, fo := mustState(t, env.engine, events), mustState(t, f.Engine(), events); !bytes.Equal(l, fo) {
		t.Fatalf("leader and follower state differ: leader %d bytes, follower %d bytes", len(l), len(fo))
	}

	// Read API equivalence over the wire: stats, queue, runs.
	fsrv := httptest.NewServer(platform.NewServer(f.Engine()))
	defer fsrv.Close()
	for _, path := range []string{
		fmt.Sprintf("/api/projects/%d/stats", p.ID),
		fmt.Sprintf("/api/projects/%d/queue", p.ID),
		fmt.Sprintf("/api/tasks/%d/runs", 1),
		fmt.Sprintf("/api/tasks/%d/runs", 9999),
	} {
		lb := httpGet(t, env.hs.URL+path)
		fb := httpGet(t, fsrv.URL+path)
		if !bytes.Equal(lb, fb) {
			t.Fatalf("%s differs:\nleader:   %s\nfollower: %s", path, lb, fb)
		}
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return body
}

// TestFollowerBootstrapMidCheckpoint races the bootstrap against
// leader-side snapshot cuts and concurrent submit load: whatever cut the
// snapshot fetch observes, the stream resumes at exactly its sequence,
// so the follower still converges byte-identically.
func TestFollowerBootstrapMidCheckpoint(t *testing.T) {
	env := newLeaderEnv(t, 0) // manual cuts only
	cp, err := platform.NewCheckpointer(env.engine, platform.CheckpointOptions{
		CompactMinBytes: 32 << 10,
	})
	if err != nil {
		t.Fatalf("checkpointer: %v", err)
	}
	defer cp.Close()
	_, events := buildHistory(t, env.engine, "base", 2000)
	waitLen(t, env.journal, events)
	if err := cp.CheckpointNow(); err != nil {
		t.Fatalf("seed checkpoint: %v", err)
	}

	// Load + cut storm while the follower bootstraps.
	stop := make(chan struct{})
	var loadWG, cutWG sync.WaitGroup
	var extra uint64
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		_, n := buildHistory(t, env.engine, "storm", 2000)
		extra = n
	}()
	cutWG.Add(1)
	go func() {
		defer cutWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cp.CheckpointNow(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	f := startFollower(t, env)
	loadWG.Wait()
	close(stop)
	cutWG.Wait()
	total := events + extra
	waitLen(t, env.journal, total)
	if err := f.WaitFor(total, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if l, fo := mustState(t, env.engine, total), mustState(t, f.Engine(), total); !bytes.Equal(l, fo) {
		t.Fatal("leader and follower state differ after mid-checkpoint bootstrap")
	}
}

// TestFollowerKillRejoin kills a follower mid-catch-up (a replica holds
// no durable state, so kill -9 and Close are the same event: the state
// vanishes) and rejoins a fresh one after more leader traffic. Rejoin is
// a fresh bootstrap, bounded by the checkpoint interval, and converges
// byte-identically.
func TestFollowerKillRejoin(t *testing.T) {
	env := newLeaderEnv(t, 500)
	_, events := buildHistory(t, env.engine, "one", 1500)
	waitLen(t, env.journal, events)

	f1 := startFollower(t, env)
	// Kill it at whatever progress it reached mid-stream.
	if err := f1.WaitFor(events/3, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	f1.Close()

	_, more := buildHistory(t, env.engine, "two", 1000)
	total := events + more
	waitLen(t, env.journal, total)
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	f2 := startFollower(t, env)
	if err := f2.WaitFor(total, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := f2.stats(); st.SnapshotSeq == 0 {
		t.Fatalf("rejoin did not bootstrap from a snapshot: %+v", st)
	}
	if l, fo := mustState(t, env.engine, total), mustState(t, f2.Engine(), total); !bytes.Equal(l, fo) {
		t.Fatal("rejoined follower state differs from leader")
	}
}

// TestStreamSnapshotRequired: a stream position truncated into a
// snapshot gets 410 snapshot_required, the follower's signal to
// re-bootstrap.
func TestStreamSnapshotRequired(t *testing.T) {
	env := newLeaderEnv(t, 100)
	_, events := buildHistory(t, env.engine, "trunc", 400)
	waitLen(t, env.journal, events)
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if env.journal.FirstSeq() == 0 {
		t.Fatal("checkpoint did not truncate the journal")
	}
	resp, err := http.Get(env.hs.URL + "/api/repl/stream?from=0&wait=1ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stream from 0 over a truncated journal: HTTP %d, want 410", resp.StatusCode)
	}
}

// TestFollowerRedirectsWrites: the read replica's HTTP surface rejects
// writes with a 307 to the leader, which stock clients follow — so a
// client pointed at a follower still lands its writes on the leader.
func TestFollowerRedirectsWrites(t *testing.T) {
	env := newLeaderEnv(t, 0)
	_, events := buildHistory(t, env.engine, "seed", 10)
	waitLen(t, env.journal, events)

	f := startFollower(t, env)
	if err := f.WaitFor(events, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(platform.NewServer(f.Engine()))
	defer fsrv.Close()

	// Raw request without redirect-following: observe the 307 itself.
	noRedirect := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	req, _ := http.NewRequest(http.MethodPut, fsrv.URL+"/api/projects",
		bytes.NewReader([]byte(`{"name":"redirected"}`)))
	resp, err := noRedirect.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("write to follower: HTTP %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != env.hs.URL+"/api/projects" {
		t.Fatalf("redirect location %q, want leader %q", loc, env.hs.URL+"/api/projects")
	}

	// The stock platform client follows it end to end.
	client := platform.NewHTTPClient(fsrv.URL, nil)
	p, err := client.EnsureProject(platform.ProjectSpec{Name: "redirected", Redundancy: 1})
	if err != nil {
		t.Fatalf("EnsureProject via follower: %v", err)
	}
	if got, ok, _ := env.engine.FindProject("redirected"); !ok || got.ID != p.ID {
		t.Fatalf("project did not land on the leader (ok=%v)", ok)
	}
	// And reads on the follower still serve locally (no redirect).
	if _, err := platform.NewHTTPClient(fsrv.URL, noRedirect).Stats(1); err != nil {
		t.Fatalf("read on follower: %v", err)
	}
}

// TestPromoteContinuesHistory promotes a caught-up follower into a
// leader with its own store: sequence numbering continues at the applied
// position, writes are accepted, and a second-generation follower
// bootstraps from the promoted node and converges byte-identically.
func TestPromoteContinuesHistory(t *testing.T) {
	env := newLeaderEnv(t, 200)
	_, events := buildHistory(t, env.engine, "gen1", 600)
	waitLen(t, env.journal, events)
	if err := env.cp.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	promoDir := filepath.Join(t.TempDir(), "promoted")
	node, err := NewFollowerNode(FollowerOptions{
		LeaderURL: env.hs.URL,
		Clock:     vclock.NewVirtual(),
		PollWait:  250 * time.Millisecond,
		DataDir:   promoDir,
		Storage:   storage.Options{Sync: storage.SyncNever},
		Checkpoint: platform.CheckpointOptions{
			EveryEvents:     50,
			CompactMinBytes: 32 << 10,
		},
	})
	if err != nil {
		t.Fatalf("follower node: %v", err)
	}
	defer node.Close()
	fsrv := platform.NewServer(node.Engine())
	fsrv.Handle("/api/repl/", node.Handler())
	fhs := httptest.NewServer(fsrv)
	defer fhs.Close()

	if err := node.Follower().WaitFor(events, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Fail over via the operator endpoint.
	resp, err := http.Post(fhs.URL+"/api/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: HTTP %d: %s", resp.StatusCode, body)
	}
	var st platform.ReplStats
	if err := json.Unmarshal(body, &st); err != nil || st.Role != RoleLeader {
		t.Fatalf("promote response %s (err %v), want leader role", body, err)
	}

	// The promoted node accepts writes, with sequence numbers continuing
	// where replication stopped.
	engine := node.Engine()
	_, more := buildHistory(t, engine, "gen2", 100)
	client := platform.NewHTTPClient(fhs.URL, nil)
	if _, err := client.EnsureProject(platform.ProjectSpec{Name: "gen2-wire", Redundancy: 1}); err != nil {
		t.Fatalf("write to promoted leader: %v", err)
	}
	total := events + more + 1

	// The promoted leader keeps checkpointing: with ~100 post-promotion
	// events and a 50-event cadence, a fresh cut must land past the
	// promotion seed — otherwise failover silently re-opens the
	// unbounded-journal liability.
	cutDeadline := time.Now().Add(30 * time.Second)
	for {
		if ss := engine.PlatformStats().Snapshot; ss != nil && ss.LastSeq > events {
			break
		}
		if time.Now().After(cutDeadline) {
			t.Fatalf("promoted leader never checkpointed past the promotion seed (stats %+v)",
				engine.PlatformStats().Snapshot)
		}
		time.Sleep(time.Millisecond)
	}

	// Second-generation follower bootstraps from the promoted leader.
	f2, err := StartFollower(FollowerOptions{
		LeaderURL: fhs.URL,
		Clock:     vclock.NewVirtual(),
		PollWait:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("gen2 follower: %v", err)
	}
	defer f2.Close()
	if err := f2.WaitFor(total, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := f2.stats(); st.SnapshotSeq < events {
		t.Fatalf("gen2 bootstrap snapshot at %d, want >= promote point %d", st.SnapshotSeq, events)
	}
	if l, fo := mustState(t, engine, total), mustState(t, f2.Engine(), total); !bytes.Equal(l, fo) {
		t.Fatal("gen2 follower state differs from promoted leader")
	}
}

// TestHealthzRoles: healthz reports leader readiness immediately and
// follower readiness only once caught up.
func TestHealthzRoles(t *testing.T) {
	env := newLeaderEnv(t, 0)
	_, events := buildHistory(t, env.engine, "h", 50)
	waitLen(t, env.journal, events)

	var st platform.ReplStats
	if err := json.Unmarshal(httpGet(t, env.hs.URL+"/api/healthz"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != RoleLeader || !st.Ready {
		t.Fatalf("leader healthz %+v, want ready leader", st)
	}

	f := startFollower(t, env)
	if err := f.WaitFor(events, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	waitReady(t, f)
	fsrv := httptest.NewServer(platform.NewServer(f.Engine()))
	defer fsrv.Close()
	if err := json.Unmarshal(httpGet(t, fsrv.URL+"/api/healthz"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != RoleFollower || !st.Ready || st.AppliedSeq != events {
		t.Fatalf("follower healthz %+v, want ready follower at %d", st, events)
	}
}

// TestStreamWireNegotiation pins the dual-codec contract of the stream
// and snapshot endpoints: a peer sending Accept with the frame content
// type gets CRC-framed binary, everyone else keeps the legacy JSONL/JSON
// wire — and both decode to identical events. This is what lets a new
// follower poll an old leader (no frames offered, JSONL fallback) and an
// old follower poll a new leader (no Accept, JSONL served) during a
// rolling upgrade.
func TestStreamWireNegotiation(t *testing.T) {
	env := newLeaderEnv(t, 0)
	_, events := buildHistory(t, env.engine, "wire", 64)
	waitLen(t, env.journal, events)

	fetch := func(path string, frames bool) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, env.hs.URL+path, nil)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		if frames {
			req.Header.Set("Accept", platform.FrameContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("fetch %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch %s: HTTP %d", path, resp.StatusCode)
		}
		return resp
	}
	streamPath := fmt.Sprintf("/api/repl/stream?from=0&wait=0s&max=%d", events)

	// Legacy wire: no Accept header, JSONL body.
	resp := fetch(streamPath, false)
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("legacy stream Content-Type = %q", ct)
	}
	var legacy []StreamEvent
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var se StreamEvent
		if err := dec.Decode(&se); err != nil {
			t.Fatalf("decode JSONL: %v", err)
		}
		legacy = append(legacy, se)
	}
	resp.Body.Close()

	// Negotiated wire: CRC-framed binary.
	resp = fetch(streamPath, true)
	if ct := resp.Header.Get("Content-Type"); ct != platform.FrameContentType {
		t.Fatalf("framed stream Content-Type = %q", ct)
	}
	var framed []StreamEvent
	br := bufio.NewReader(resp.Body)
	var scratch []byte
	for {
		seq, ev, err := platform.ReadStreamFrame(br, &scratch)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode frame: %v", err)
		}
		framed = append(framed, StreamEvent{Seq: seq, Event: ev})
	}
	resp.Body.Close()

	if len(legacy) != int(events) || len(framed) != int(events) {
		t.Fatalf("event counts: legacy %d framed %d, want %d", len(legacy), len(framed), events)
	}
	for i := range legacy {
		lj, _ := json.Marshal(legacy[i])
		fj, _ := json.Marshal(framed[i])
		if !bytes.Equal(lj, fj) {
			t.Fatalf("event %d differs across wires:\n  jsonl: %s\n  frame: %s", i, lj, fj)
		}
	}

	// Snapshot endpoint: cut one manually, then fetch it both ways.
	state := mustState(t, env.engine, events)
	if _, err := storage.WriteSnapshot(env.db, platform.SnapshotPrefix, 1, events, state); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	resp = fetch("/api/repl/snapshot", false)
	plain, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("legacy snapshot Content-Type = %q", ct)
	}
	resp = fetch("/api/repl/snapshot", true)
	wrapped, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read framed snapshot: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != platform.FrameContentType {
		t.Fatalf("framed snapshot Content-Type = %q", ct)
	}
	unwrapped, err := platform.DecodeSnapshotFrame(wrapped)
	if err != nil {
		t.Fatalf("unwrap snapshot frame: %v", err)
	}
	if !bytes.Equal(plain, unwrapped) {
		t.Fatalf("snapshot payload differs across wires (%d vs %d bytes)", len(plain), len(unwrapped))
	}
}
