package sim

import (
	"errors"
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/gate"
	"repro/internal/platform"
	"repro/internal/vclock"
)

// seedCount is how many seeded chaos scenarios TestSimSweep runs. The
// regular CI job raises it (-seeds=200); the default keeps `go test`
// fast. Reproduce a CI failure with:
//
//	go test ./internal/sim -run 'TestSimSweep/seed=<N>' -seeds=<count>
var seedCount = flag.Int("seeds", 8, "seeded scenarios TestSimSweep runs")

func mustQuiesce(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Quiesce(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func checkInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.CheckSingleLeader(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckReplicasIdentical(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckFeedMatchesRuns(); err != nil {
		t.Fatal(err)
	}
}

// seedTasks writes n redundancy-1 tasks into project name on engine e,
// with external ids prefix-0..prefix-n-1, submitting one answer to each
// (which retires them). Returns the project id.
func seedTasks(t *testing.T, e *platform.Engine, name, prefix string, n int) int64 {
	t.Helper()
	p, err := e.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1})
	if err != nil {
		t.Fatalf("ensure %s: %v", name, err)
	}
	specs := make([]platform.TaskSpec, n)
	for i := range specs {
		specs[i] = platform.TaskSpec{
			ExternalID: fmt.Sprintf("%s-%d", prefix, i),
			Payload:    map[string]string{"q": fmt.Sprintf("item %d", i)},
		}
	}
	tasks, err := e.AddTasks(p.ID, specs)
	if err != nil {
		t.Fatalf("add tasks to %s: %v", name, err)
	}
	for i, task := range tasks {
		if _, err := e.Submit(task.ID, fmt.Sprintf("w-%d", i%3), "yes"); err != nil {
			t.Fatalf("submit task %d: %v", task.ID, err)
		}
	}
	return p.ID
}

// TestSimFollowerKillRejoin is repl's TestFollowerKillRejoin in virtual
// time: a follower dies, the leader keeps committing, the follower comes
// back and must re-converge byte-for-byte.
func TestSimFollowerKillRejoin(t *testing.T) {
	script := Script{
		Config: Config{Leaders: 1, FollowersPerLeader: 1, CheckpointEvery: 64},
		Ops: []Op{
			{Kind: OpBurst, Project: "alpha", N: 80},
			{Kind: OpKill, Node: "f1"},
			{Kind: OpBurst, Project: "alpha", N: 80},
			{Kind: OpAdvance, D: time.Second},
			{Kind: OpRestart, Node: "f1"},
			{Kind: OpBurst, Project: "alpha", N: 40},
		},
	}
	rep, err := Run(t.TempDir(), 1, script)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpErrors != 0 {
		t.Fatalf("op errors: %d", rep.OpErrors)
	}
	if rep.AckedTasks != 200 {
		t.Fatalf("acked tasks: got %d, want 200", rep.AckedTasks)
	}
}

// TestSimFollowerBootstrapMidCheckpoint is repl's bootstrap-under-
// checkpoint-storm test: the follower rejoins while the leader keeps
// cutting snapshots and compacting, so the bootstrap snapshot+tail lands
// astride checkpoint boundaries.
func TestSimFollowerBootstrapMidCheckpoint(t *testing.T) {
	script := Script{
		Config: Config{Leaders: 1, FollowersPerLeader: 1, CheckpointEvery: 32},
		Ops: []Op{
			{Kind: OpBurst, Project: "alpha", N: 100},
			{Kind: OpCheckpoint, Node: "l1"},
			{Kind: OpKill, Node: "f1"},
			{Kind: OpBurst, Project: "alpha", N: 100},
			{Kind: OpCheckpoint, Node: "l1"},
			{Kind: OpRestart, Node: "f1"},
			{Kind: OpBurst, Project: "beta", N: 60},
			{Kind: OpCheckpoint, Node: "l1"},
			{Kind: OpBurst, Project: "alpha", N: 40},
		},
	}
	rep, err := Run(t.TempDir(), 2, script)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedTasks != 300 {
		t.Fatalf("acked tasks: got %d, want 300", rep.AckedTasks)
	}
}

// TestSimPromoteContinuesHistory is repl's TestPromoteContinuesHistory
// in virtual time: kill the leader, promote a caught-up follower, keep
// writing, and have a second follower re-bootstrap from the promoted
// node — one unbroken history.
func TestSimPromoteContinuesHistory(t *testing.T) {
	c, err := New(7, Config{Dir: t.TempDir(), Leaders: 1, FollowersPerLeader: 2, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seedTasks(t, c.Node("l1").Engine(), "alpha", "pre", 150)
	mustQuiesce(t, c)
	preFrontier := c.Node("l1").frontier()

	// The failure: f2 is lost with the leader; f1 survives, caught up.
	if err := c.Kill("f2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill("l1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Promote("f1"); err != nil {
		t.Fatal(err)
	}
	lead := c.PartitionLeader("l1")
	if lead == nil || lead.Name != "f1" {
		t.Fatalf("partition l1 leader after promote: %+v", lead)
	}

	// History continues on the promoted node: same project, new writes.
	p, ok, err := lead.Engine().FindProject("alpha")
	if err != nil || !ok {
		t.Fatalf("promoted node lost project alpha (ok=%v err=%v)", ok, err)
	}
	seedTasks(t, lead.Engine(), "alpha", "post", 50)
	mustQuiesce(t, c)
	if lead.frontier() <= preFrontier {
		t.Fatalf("frontier did not advance past promotion: %d <= %d", lead.frontier(), preFrontier)
	}

	// A new-generation follower bootstraps from the promoted leader.
	if err := c.Restart("f2"); err != nil {
		t.Fatal(err)
	}
	mustQuiesce(t, c)
	checkInvariants(t, c)

	tasks, err := c.Node("f2").Engine().Tasks(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 200 {
		t.Fatalf("rejoined follower sees %d tasks, want 200", len(tasks))
	}
}

// TestSimGatewayTopologyChurn is gate's hot-reload-under-traffic test in
// virtual time: clients keep writing through the gateway while a
// follower is removed from and re-added to the topology.
func TestSimGatewayTopologyChurn(t *testing.T) {
	c, err := New(11, Config{Dir: t.TempDir(), Leaders: 2, FollowersPerLeader: 1, Gateway: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client := c.GatewayClient()

	topology := func(names ...string) gate.Topology {
		top := gate.Topology{}
		for _, n := range names {
			top.Nodes = append(top.Nodes, gate.NodeConfig{Name: n, URL: "http://" + n})
		}
		return top
	}

	p, err := client.EnsureProject(platform.ProjectSpec{Name: "churn", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	write := func(round, n int) {
		t.Helper()
		specs := make([]platform.TaskSpec, n)
		for i := range specs {
			specs[i] = platform.TaskSpec{ExternalID: fmt.Sprintf("r%d-%d", round, i)}
		}
		tasks, err := client.AddTasks(p.ID, specs)
		if err != nil {
			t.Fatalf("round %d: add: %v", round, err)
		}
		for _, task := range tasks {
			if _, err := client.Submit(task.ID, "w-1", "yes"); err != nil {
				t.Fatalf("round %d: submit %d: %v", round, task.ID, err)
			}
		}
	}

	write(0, 40)
	// Drop f1 from the gateway's view mid-traffic; the nodes themselves
	// keep running (replication is between nodes, not through the gate).
	if err := c.Gateway().SetTopology(topology("l1", "l2", "f2")); err != nil {
		t.Fatal(err)
	}
	c.Clock.Advance(300 * time.Millisecond)
	write(1, 40)
	// Bring it back; probes re-discover its role before reads use it.
	if err := c.Gateway().SetTopology(topology("l1", "l2", "f1", "f2")); err != nil {
		t.Fatal(err)
	}
	c.Clock.Advance(300 * time.Millisecond)
	write(2, 40)

	mustQuiesce(t, c)
	checkInvariants(t, c)
	stats, err := client.Stats(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tasks != 120 {
		t.Fatalf("tasks after churn: got %d, want 120", stats.Tasks)
	}
}

// TestSimLeaseTTLDrain is the scheduler lease-expiry test in virtual
// time: a 30-second lease drains in one Advance call instead of a
// 30-second sleep.
func TestSimLeaseTTLDrain(t *testing.T) {
	ttl := 30 * time.Second
	c, err := New(3, Config{Dir: t.TempDir(), Leaders: 1, FollowersPerLeader: 0, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := c.Node("l1").Engine()

	p, err := e.EnsureProject(platform.ProjectSpec{Name: "lease", Redundancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	added, err := e.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "only"}})
	if err != nil {
		t.Fatal(err)
	}

	got, err := e.RequestTask(p.ID, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != added[0].ID {
		t.Fatalf("leased task %d, want %d", got.ID, added[0].ID)
	}
	// The lease holds: no other worker can take the task...
	if _, err := e.RequestTask(p.ID, "w2"); !errors.Is(err, platform.ErrNoTask) {
		t.Fatalf("second worker during lease: got %v, want ErrNoTask", err)
	}
	// ...until the TTL drains — in virtual time, instantly.
	c.Clock.Advance(ttl + time.Second)
	re, err := e.RequestTask(p.ID, "w2")
	if err != nil {
		t.Fatalf("after lease expiry: %v", err)
	}
	if re.ID != added[0].ID {
		t.Fatalf("reclaimed task %d, want %d", re.ID, added[0].ID)
	}
}

// failoverScript is the acceptance scenario: a 2-leader/2-follower/
// gateway cluster takes acknowledged traffic through a mid-checkpoint
// follower crash and re-bootstrap, a 30-second network partition, and a
// leader kill + follower promotion — all in virtual time. Post-failover
// writes go to projects created before the failover: a promotion changes
// the gateway's leader set, and new-name placement is the operator's
// rebalancing problem, not this scenario's.
func failoverScript() Script {
	return Script{
		Config: Config{Leaders: 2, FollowersPerLeader: 1, Gateway: true, CheckpointEvery: 64},
		Ops: []Op{
			{Kind: OpBurst, Project: "alpha", N: 40},
			{Kind: OpBurst, Project: "beta", N: 40},
			{Kind: OpBurst, Project: "gamma", N: 30},
			{Kind: OpBurst, Project: "delta", N: 30},
			// Mid-checkpoint crash: kill f1 between snapshot cuts, write
			// past more cuts, and make its rejoin bootstrap land astride
			// checkpoint boundaries.
			{Kind: OpCheckpoint, Node: "l1"},
			{Kind: OpKill, Node: "f1"},
			{Kind: OpBurst, Project: "alpha", N: 20},
			{Kind: OpCheckpoint, Node: "l1"},
			{Kind: OpRestart, Node: "f1"},
			// A 30-second partition of f2 from its leader: reconnect
			// backoff walks its full schedule in microseconds of wall time.
			{Kind: OpPartition, Node: "f2", Peer: "l2"},
			{Kind: OpAdvance, D: 30 * time.Second},
			{Kind: OpHeal, Node: "f2", Peer: "l2"},
			{Kind: OpBurst, Project: "beta", N: 20},
			// Failover: settle first (the operator verifies the follower is
			// caught up — promoting a lagging one forfeits acked writes),
			// then l1 dies, probes notice, f1 is promoted, probes
			// re-discover the leader set, and writes keep flowing.
			{Kind: OpSettle},
			{Kind: OpKill, Node: "l1"},
			{Kind: OpAdvance, D: 400 * time.Millisecond},
			{Kind: OpPromote, Node: "f1"},
			{Kind: OpAdvance, D: 400 * time.Millisecond},
			{Kind: OpBurst, Project: "alpha", N: 10},
			{Kind: OpBurst, Project: "beta", N: 10},
		},
	}
}

// TestSimFailoverScenario runs the acceptance scenario twice from the
// same seed: it must hold every quiesce invariant, finish well under a
// second of wall time despite containing over thirty seconds of
// simulated time, and produce bit-identical final state on replay.
func TestSimFailoverScenario(t *testing.T) {
	const seed = 42
	script := failoverScript()

	start := time.Now()
	rep1, err := Run(t.TempDir(), seed, script)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	budget := time.Second
	if raceEnabled {
		budget = 10 * time.Second
	}
	if elapsed >= budget {
		t.Errorf("scenario took %v of wall time, want < %v", elapsed, budget)
	}
	if rep1.OpErrors != 0 {
		t.Fatalf("op errors: %d (post-failover writes must be accepted)", rep1.OpErrors)
	}
	if rep1.AckedTasks != 200 {
		t.Fatalf("acked tasks: got %d, want 200", rep1.AckedTasks)
	}

	rep2, err := Run(t.TempDir(), seed, script)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep1.Hash != rep2.Hash {
		t.Fatalf("replay diverged: hash %x vs %x", rep1.Hash, rep2.Hash)
	}
	if len(rep1.Frontiers) != len(rep2.Frontiers) {
		t.Fatalf("replay diverged: frontiers %v vs %v", rep1.Frontiers, rep2.Frontiers)
	}
	for p, f := range rep1.Frontiers {
		if rep2.Frontiers[p] != f {
			t.Fatalf("replay diverged: partition %s frontier %d vs %d", p, f, rep2.Frontiers[p])
		}
	}
}

// TestSimSweep runs seeded randomized chaos scenarios: each seed
// generates a script of acknowledged write bursts interleaved with
// follower kills, restarts, partitions, heals, checkpoints, time
// advances, elections (gateway-elector and operator-promote flavors) and
// injected disk faults, and Run asserts the full invariant set at
// quiesce. Every other seed runs a gateway with the elector enabled, and
// every third seed runs SyncWrites with the disk-fault mix, so a 200-seed
// sweep exercises election and crash-recovery paths many dozens of times.
// A failing seed prints a SIM-SEED-FAILURE line with the exact
// reproduction command plus a SIM-SHRUNK line with the delta-debugged
// minimal op list; CI greps for both and publishes them as artifacts.
func TestSimSweep(t *testing.T) {
	const base = uint64(0x5eed0000)
	for i := 0; i < *seedCount; i++ {
		seed := base + uint64(i)
		gateway := i%2 == 0
		cfg := Config{
			Leaders: 2, FollowersPerLeader: 1, CheckpointEvery: 64,
			Gateway: gateway, AutoFailover: gateway,
			SyncWrites: i%3 == 0,
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			script := GenScript(vclock.NewSeededRand(seed), cfg, 24)
			if _, err := Run(t.TempDir(), seed, script); err != nil {
				shrunk := ShrinkScript(t.TempDir(), seed, script, 48)
				t.Fatalf("SIM-SEED-FAILURE seed=%d gateway=%v syncwrites=%v: %v\nreproduce: go test ./internal/sim -run 'TestSimSweep/seed=%d' -seeds=%d\nSIM-SHRUNK seed=%d ops=%d-of-%d: %s",
					seed, gateway, cfg.SyncWrites, err, seed, i+1,
					seed, len(shrunk.Ops), len(script.Ops), FormatOps(shrunk.Ops))
			}
		})
	}
}
