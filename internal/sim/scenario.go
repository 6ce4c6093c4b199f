package sim

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// OpKind is one scripted action class.
type OpKind uint8

const (
	// OpBurst writes N tasks to Project (ensuring it exists), submitting
	// one answer to each — the redundancy-1 retire cycle.
	OpBurst OpKind = iota
	// OpAdvance moves simulated time forward by D.
	OpAdvance
	// OpKill stops Node.
	OpKill
	// OpRestart brings Node back (a follower re-bootstraps).
	OpRestart
	// OpPartition cuts the Node<->Peer link.
	OpPartition
	// OpHeal restores the Node<->Peer link.
	OpHeal
	// OpCheckpoint forces a snapshot cut on Node.
	OpCheckpoint
	// OpPromote turns follower Node into its partition's leader (script
	// the partition leader's OpKill first, as an operator would).
	OpPromote
	// OpSettle quiesces the cluster mid-script: every acknowledged write
	// flushed and every live follower caught up. An operator checks
	// replication lag exactly like this before a planned failover —
	// promoting a lagging follower forfeits the writes it never saw.
	OpSettle
	// OpKillLeader kills partition Node's CURRENT leader, resolved at run
	// time — after a prior failover that is the promoted follower's host,
	// not the partition's namesake.
	OpKillLeader
	// OpAwaitLeader advances simulated time until partition Node has a
	// live unfenced leader again — the op a script parks on while the
	// gateway's elector detects the death and promotes.
	OpAwaitLeader
	// OpPromoteBest promotes partition Node's most-caught-up follower
	// with a freshly minted epoch — the operator failover, for clusters
	// without an electing gateway.
	OpPromoteBest
	// OpRejoin restarts every dead node of partition Node as a follower
	// of its current leader (a deposed ex-leader rejoins the new timeline
	// as a replica).
	OpRejoin
	// OpDiskFault arms disk fault Fault ("torn", "short", "full") on
	// Node's next segment write; the store fail-stops when it fires.
	OpDiskFault
)

func (k OpKind) String() string {
	switch k {
	case OpBurst:
		return "burst"
	case OpAdvance:
		return "advance"
	case OpKill:
		return "kill"
	case OpRestart:
		return "restart"
	case OpPartition:
		return "partition"
	case OpHeal:
		return "heal"
	case OpCheckpoint:
		return "checkpoint"
	case OpPromote:
		return "promote"
	case OpSettle:
		return "settle"
	case OpKillLeader:
		return "kill-leader"
	case OpAwaitLeader:
		return "await-leader"
	case OpPromoteBest:
		return "promote-best"
	case OpRejoin:
		return "rejoin"
	case OpDiskFault:
		return "disk-fault"
	}
	return "unknown"
}

// Op is one scripted action. Which fields matter depends on Kind.
type Op struct {
	Kind    OpKind
	Node    string        // Kill, Restart, Partition, Heal, Checkpoint, DiskFault; the partition for KillLeader, AwaitLeader, PromoteBest, Rejoin
	Peer    string        // Partition, Heal
	Project string        // Burst
	N       int           // Burst: task count
	D       time.Duration // Advance
	Fault   string        // DiskFault: "torn", "short", "full"
}

// String renders an op compactly — the shape shrunk reproductions are
// printed in.
func (o Op) String() string {
	switch o.Kind {
	case OpBurst:
		return fmt.Sprintf("burst{%s,%d}", o.Project, o.N)
	case OpAdvance:
		return fmt.Sprintf("advance{%s}", o.D)
	case OpPartition, OpHeal:
		return fmt.Sprintf("%s{%s,%s}", o.Kind, o.Node, o.Peer)
	case OpDiskFault:
		return fmt.Sprintf("disk-fault{%s,%s}", o.Node, o.Fault)
	case OpSettle:
		return "settle"
	default:
		return fmt.Sprintf("%s{%s}", o.Kind, o.Node)
	}
}

// Script is a replayable scenario: a cluster shape plus an ordered op
// list. Scripts are data — log one (or its generating seed) and any run
// reproduces it.
type Script struct {
	Config Config
	Ops    []Op
}

// ackLog records what the scenario was acknowledged: these writes must
// exist, exactly once, at quiesce. Unacknowledged writes (a response
// lost to a severed connection) may or may not have landed — the engine
// dedups them by ExternalID, and the log deliberately says nothing about
// them.
type ackLog struct {
	projects map[string]int64            // name → acked id
	tasks    map[string]map[string]int64 // project → external id → task id
	submits  map[int64]int               // task id → acked submissions
	next     map[string]int              // project → next external-id ordinal
}

func newAckLog() *ackLog {
	return &ackLog{
		projects: make(map[string]int64),
		tasks:    make(map[string]map[string]int64),
		submits:  make(map[int64]int),
		next:     make(map[string]int),
	}
}

// Report is a scenario's outcome, written so a failing CI run is
// reproducible: rerun the seed, get the same report.
type Report struct {
	Seed         uint64
	Hash         uint64            // StateHash at final quiesce
	Frontiers    map[string]uint64 // partition leader → journal frontier
	AckedTasks   int
	AckedSubmits int
	// OpErrors counts scripted ops that failed to take effect (e.g. a
	// write bounced by a mid-churn gateway). Failed writes are simply not
	// acked; they never weaken the invariants.
	OpErrors int
}

// Run executes a seeded script against a fresh cluster in dir: build,
// apply each op, heal every cut, restart every dead follower, quiesce,
// assert the invariants (replicas byte-identical, acked writes present
// exactly once, one live leader per partition), and digest the final
// state. Two calls with the same seed, dir contents aside, return the
// same Hash.
func Run(dir string, seed uint64, script Script) (*Report, error) {
	cfg := script.Config
	cfg.Dir = dir
	c, err := New(seed, cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	r := &runner{c: c, acks: newAckLog(), report: &Report{Seed: seed, Frontiers: make(map[string]uint64)}}
	for i, op := range script.Ops {
		if err := r.apply(op); err != nil {
			return nil, fmt.Errorf("sim: seed %d op %d (%s): %w", seed, i, op.Kind, err)
		}
	}
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("sim: seed %d: %w", seed, err)
	}
	return r.report, nil
}

type runner struct {
	c      *Cluster
	acks   *ackLog
	report *Report
	client *platform.HTTPClient
}

// apply executes one op. Infrastructure ops (kill, partition, …) must
// succeed; write ops tolerate per-request failures (they go unacked and
// count as OpErrors).
func (r *runner) apply(op Op) error {
	switch op.Kind {
	case OpBurst:
		r.burst(op.Project, op.N)
		return nil
	case OpAdvance:
		r.c.Clock.Advance(op.D)
		return nil
	case OpKill:
		return r.c.Kill(op.Node)
	case OpRestart:
		if err := r.c.Restart(op.Node); err != nil {
			// A follower cannot rejoin while partitioned from its leader;
			// the closing heal-and-restart pass will bring it back.
			r.report.OpErrors++
		}
		return nil
	case OpPartition:
		r.c.Net.Partition(op.Node, op.Peer)
		return nil
	case OpHeal:
		r.c.Net.Heal(op.Node, op.Peer)
		return nil
	case OpCheckpoint:
		n := r.c.Node(op.Node)
		if n == nil || !n.Alive || n.cp == nil {
			return nil
		}
		return n.CheckpointNow()
	case OpPromote:
		return r.c.Promote(op.Node)
	case OpSettle:
		return r.c.Quiesce(2 * time.Minute)
	case OpKillLeader:
		lead := r.c.PartitionLeader(op.Node)
		if lead == nil {
			return fmt.Errorf("partition %s has no live leader to kill", op.Node)
		}
		return r.c.Kill(lead.Name)
	case OpAwaitLeader:
		return r.c.AwaitLeader(op.Node, 2*time.Minute)
	case OpPromoteBest:
		return r.c.PromoteBest(op.Node)
	case OpRejoin:
		return r.c.RejoinDead(op.Node)
	case OpDiskFault:
		r.c.ArmDiskFault(op.Node, op.Fault)
		return nil
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

// burst writes n tasks to project and submits one answer to each,
// recording exactly what was acknowledged.
func (r *runner) burst(project string, n int) {
	pid, ok := r.ensureProject(project)
	if !ok {
		r.report.OpErrors++
		return
	}
	base := r.acks.next[project]
	specs := make([]platform.TaskSpec, n)
	for i := range specs {
		specs[i] = platform.TaskSpec{
			ExternalID: fmt.Sprintf("%s-%d", project, base+i),
			Payload:    map[string]string{"q": fmt.Sprintf("item %d", base+i)},
		}
	}
	r.acks.next[project] = base + n
	tasks, err := r.addTasks(pid, specs)
	if err != nil {
		r.report.OpErrors++
		return
	}
	if r.acks.tasks[project] == nil {
		r.acks.tasks[project] = make(map[string]int64)
	}
	for _, t := range tasks {
		r.acks.tasks[project][t.ExternalID] = t.ID
		r.report.AckedTasks++
	}
	for i, t := range tasks {
		if err := r.submit(t.ID, fmt.Sprintf("w-%d", i%5)); err != nil {
			r.report.OpErrors++
			continue
		}
		r.acks.submits[t.ID]++
		r.report.AckedSubmits++
	}
}

// gatewayClient lazily builds the through-the-front-door client.
func (r *runner) gatewayClient() *platform.HTTPClient {
	if r.client == nil {
		r.client = r.c.GatewayClient()
	}
	return r.client
}

// ownerEngine routes a direct (gateway-less) write like the ring would.
func (r *runner) ownerEngine(project string) *platform.Engine {
	lead := r.c.PartitionLeader(r.c.Ring.LookupString(project))
	if lead == nil {
		return nil
	}
	return lead.Engine()
}

func (r *runner) ensureProject(name string) (int64, bool) {
	if id, ok := r.acks.projects[name]; ok {
		return id, true
	}
	var p platform.Project
	var err error
	if r.c.Gateway() != nil {
		p, err = r.gatewayClient().EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1})
	} else {
		e := r.ownerEngine(name)
		if e == nil {
			return 0, false
		}
		p, err = e.EnsureProject(platform.ProjectSpec{Name: name, Redundancy: 1})
	}
	if err != nil {
		return 0, false
	}
	r.acks.projects[name] = p.ID
	return p.ID, true
}

func (r *runner) addTasks(pid int64, specs []platform.TaskSpec) ([]platform.Task, error) {
	if r.c.Gateway() != nil {
		return r.gatewayClient().AddTasks(pid, specs)
	}
	// Ids are ring-owned (OwnsID), so the project id names its partition.
	lead := r.c.PartitionLeader(r.c.Ring.Lookup(pid))
	if lead == nil {
		return nil, fmt.Errorf("no live leader for project %d", pid)
	}
	return lead.Engine().AddTasks(pid, specs)
}

func (r *runner) submit(taskID int64, worker string) error {
	if r.c.Gateway() != nil {
		_, err := r.gatewayClient().Submit(taskID, worker, "yes")
		return err
	}
	lead := r.c.PartitionLeader(r.c.Ring.Lookup(taskID))
	if lead == nil {
		return fmt.Errorf("no live leader for task %d", taskID)
	}
	_, err := lead.Engine().Submit(taskID, worker, "yes")
	return err
}

// finish heals the network, converges every partition's membership on
// its current leader, quiesces, and runs every invariant.
func (r *runner) finish() error {
	r.c.Net.HealAll()
	// Disarm any armed-but-unfired disk fault: the closing quiesce and
	// invariant sweep must observe the cluster, not fault it further.
	for _, n := range r.c.Nodes() {
		if n.fs != nil {
			n.fs.Arm("")
		}
	}
	for i := 1; i <= r.c.cfg.Leaders; i++ {
		p := fmt.Sprintf("l%d", i)
		// A partition with no live unfenced leader gets its original leader
		// back: nobody was promoted past its journal, which is therefore
		// the committed history.
		if r.c.PartitionLeader(p) == nil {
			for _, n := range r.c.Nodes() {
				if !n.Alive && n.IsLeader && n.Partition == p && n.dir != "" {
					if err := r.c.Restart(n.Name); err != nil {
						return fmt.Errorf("final restart %s: %w", n.Name, err)
					}
				}
			}
		}
		lead := r.c.PartitionLeader(p)
		if lead == nil {
			return fmt.Errorf("partition %s: no live leader at finish", p)
		}
		// Anything else claiming leadership (a deposed fenced ex-leader, a
		// restarted stale one the elector hasn't fenced yet) and any
		// follower still tracking a node other than the current leader is
		// killed here and rejoins below as a fresh replica.
		for _, n := range r.c.Nodes() {
			if !n.Alive || n.Partition != p || n.Name == lead.Name {
				continue
			}
			if n.IsLeader || n.leader != lead.Name {
				if err := r.c.Kill(n.Name); err != nil {
					return fmt.Errorf("final demote %s: %w", n.Name, err)
				}
			}
		}
		if err := r.c.RejoinDead(p); err != nil {
			return fmt.Errorf("final rejoin %s: %w", p, err)
		}
	}
	if err := r.c.Quiesce(5 * time.Minute); err != nil {
		return err
	}
	if err := r.c.CheckSingleLeader(); err != nil {
		return err
	}
	if err := r.c.CheckReplicasIdentical(); err != nil {
		return err
	}
	if err := r.c.CheckFeedMatchesRuns(); err != nil {
		return err
	}
	if err := r.checkAcked(); err != nil {
		return err
	}
	hash, err := r.c.StateHash()
	if err != nil {
		return err
	}
	r.report.Hash = hash
	for _, n := range r.c.Nodes() {
		if n.Alive && n.IsLeader {
			r.report.Frontiers[n.Partition] = n.frontier()
		}
	}
	return nil
}

// checkAcked asserts the no-lost/no-duplicate invariant over the ack
// log: every acknowledged project and task exists on its owning leader
// exactly once, and every acknowledged submission left at least one run.
func (r *runner) checkAcked() error {
	for name, pid := range r.acks.projects {
		lead := r.c.PartitionLeader(r.c.Ring.LookupString(name))
		if lead == nil {
			return fmt.Errorf("acked project %q: partition has no live leader", name)
		}
		e := lead.Engine()
		p, ok, err := e.FindProject(name)
		if err != nil || !ok {
			return fmt.Errorf("acked project %q lost (ok=%v err=%v)", name, ok, err)
		}
		if p.ID != pid {
			return fmt.Errorf("acked project %q changed id: acked %d, found %d (duplicate create)", name, pid, p.ID)
		}
		tasks, err := e.Tasks(pid)
		if err != nil {
			return fmt.Errorf("tasks of %q: %w", name, err)
		}
		count := make(map[string]int, len(tasks))
		for _, t := range tasks {
			if t.ExternalID != "" {
				count[t.ExternalID]++
			}
		}
		for ext, c := range count {
			if c > 1 {
				return fmt.Errorf("project %q: external id %q exists %d times (duplicate write)", name, ext, c)
			}
		}
		for ext, tid := range r.acks.tasks[name] {
			if count[ext] != 1 {
				return fmt.Errorf("project %q: acked task %q lost", name, ext)
			}
			if r.acks.submits[tid] > 0 {
				runs, err := e.Runs(tid)
				if err != nil || len(runs) == 0 {
					return fmt.Errorf("project %q task %q: acked submit left no run (err=%v)", name, ext, err)
				}
			}
		}
	}
	return nil
}

// GenScript derives a randomized chaos script from rnd: bursts of
// acknowledged writes interleaved with follower kills and restarts, link
// partitions and heals, forced checkpoints, time advances — and composite
// blocks: a follower re-partitioned mid-bootstrap, a full election
// (settle, kill the leader, wait out the elector or operator-promote,
// rejoin the deposed node as a follower), and — when the config runs
// SyncWrites — an injected disk fault followed by crash recovery.
//
// Elections are settle-first by construction: ops are sequential, so at
// the leader kill no write is in flight and every acknowledged write is
// already on the follower about to be promoted — "no lost acked writes"
// holds exactly, not probabilistically. A partition that failed over is
// retired from undirected chaos: its promoted leader's store is
// ephemeral, so killing it would discard acknowledged writes by design,
// and a second election would find no follower left to promote.
//
// The same rnd state and config generate the same script.
func GenScript(rnd vclock.Rand, cfg Config, nOps int) Script {
	cfg = cfg.withDefaults()
	s := Script{Config: cfg}
	nFollowers := cfg.FollowersPerLeader * cfg.Leaders
	failedOver := make(map[int]bool)
	// eligibleFollower draws a follower whose partition still has its
	// original leader (rnd-draw, then probe forward for determinism).
	eligibleFollower := func() (name, partition string, ok bool) {
		if nFollowers == 0 {
			return "", "", false
		}
		start := int(rnd.Int63n(int64(nFollowers)))
		for k := 0; k < nFollowers; k++ {
			i := (start + k) % nFollowers
			if li := i % cfg.Leaders; !failedOver[li] {
				return fmt.Sprintf("f%d", i+1), fmt.Sprintf("l%d", li+1), true
			}
		}
		return "", "", false
	}
	eligiblePartition := func() (int, bool) {
		open := make([]int, 0, cfg.Leaders)
		for i := 0; i < cfg.Leaders; i++ {
			if !failedOver[i] {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			return 0, false
		}
		return open[int(rnd.Int63n(int64(len(open))))], true
	}
	projects := []string{"alpha", "beta", "gamma", "delta"}
	burst := func() Op {
		return Op{
			Kind:    OpBurst,
			Project: projects[rnd.Int63n(int64(len(projects)))],
			N:       int(rnd.Int63n(24)) + 1,
		}
	}
	// healAll emits heal ops for every follower<->leader link a generated
	// partition op could have cut — a settle with a standing cut would
	// wait on a follower that can never catch up.
	healAll := func() {
		for i := 0; i < nFollowers; i++ {
			s.Ops = append(s.Ops, Op{
				Kind: OpHeal,
				Node: fmt.Sprintf("f%d", i+1),
				Peer: fmt.Sprintf("l%d", i%cfg.Leaders+1),
			})
		}
	}
	for len(s.Ops) < nOps {
		roll := rnd.Int63n(100)
		switch {
		case roll < 34:
			s.Ops = append(s.Ops, burst())
		case roll < 50:
			s.Ops = append(s.Ops, Op{
				Kind: OpAdvance,
				D:    time.Duration(rnd.Int63n(int64(2*time.Second))) + 10*time.Millisecond,
			})
		case roll < 58:
			if f, _, ok := eligibleFollower(); ok {
				s.Ops = append(s.Ops, Op{Kind: OpKill, Node: f})
			} else {
				s.Ops = append(s.Ops, burst())
			}
		case roll < 66:
			if f, _, ok := eligibleFollower(); ok {
				s.Ops = append(s.Ops, Op{Kind: OpRestart, Node: f})
			} else {
				s.Ops = append(s.Ops, burst())
			}
		case roll < 72:
			if f, p, ok := eligibleFollower(); ok {
				s.Ops = append(s.Ops, Op{Kind: OpPartition, Node: f, Peer: p})
			} else {
				s.Ops = append(s.Ops, burst())
			}
		case roll < 78:
			if f, p, ok := eligibleFollower(); ok {
				s.Ops = append(s.Ops, Op{Kind: OpHeal, Node: f, Peer: p})
			} else {
				s.Ops = append(s.Ops, burst())
			}
		case roll < 82:
			s.Ops = append(s.Ops, Op{
				Kind: OpCheckpoint,
				Node: fmt.Sprintf("l%d", rnd.Int63n(int64(cfg.Leaders))+1),
			})
		case roll < 88:
			// Follower re-partitioned mid-bootstrap: kill it, restart it (a
			// fresh snapshot+tail bootstrap), cut its leader link while the
			// bootstrap is in flight, let time pass, heal.
			f, p, ok := eligibleFollower()
			if !ok {
				s.Ops = append(s.Ops, burst())
				break
			}
			s.Ops = append(s.Ops,
				Op{Kind: OpKill, Node: f},
				Op{Kind: OpRestart, Node: f},
				Op{Kind: OpPartition, Node: f, Peer: p},
				Op{Kind: OpAdvance, D: time.Duration(rnd.Int63n(int64(time.Second))) + 100*time.Millisecond},
				Op{Kind: OpHeal, Node: f, Peer: p},
			)
		case roll < 95:
			// Election: heal everything, bring the target partition's
			// followers back, settle (the promotion candidate is provably
			// caught up), kill the leader, fail over, rejoin the deposed
			// node as a follower of the new leader.
			pi, ok := eligiblePartition()
			if !ok || cfg.FollowersPerLeader == 0 {
				s.Ops = append(s.Ops, burst())
				break
			}
			failedOver[pi] = true
			p := fmt.Sprintf("l%d", pi+1)
			healAll()
			for i := 0; i < nFollowers; i++ {
				if i%cfg.Leaders == pi {
					s.Ops = append(s.Ops, Op{Kind: OpRestart, Node: fmt.Sprintf("f%d", i+1)})
				}
			}
			s.Ops = append(s.Ops, Op{Kind: OpSettle}, Op{Kind: OpKillLeader, Node: p})
			if cfg.Gateway && cfg.AutoFailover {
				// The gateway's elector notices and promotes; the script
				// only waits.
				s.Ops = append(s.Ops, Op{Kind: OpAwaitLeader, Node: p})
			} else {
				s.Ops = append(s.Ops, Op{Kind: OpPromoteBest, Node: p})
			}
			s.Ops = append(s.Ops, Op{Kind: OpRejoin, Node: p}, burst())
		default:
			// Disk fault: settle (bounding what the fault can touch to
			// unacknowledged writes), arm, write into it, then crash and
			// recover the fail-stopped node. Only meaningful under
			// SyncWrites — see Config.
			pi, ok := eligiblePartition()
			if !cfg.SyncWrites || !ok {
				s.Ops = append(s.Ops, burst())
				break
			}
			p := fmt.Sprintf("l%d", pi+1)
			faults := []string{storage.FaultTorn, storage.FaultShort, storage.FaultFull}
			healAll()
			s.Ops = append(s.Ops,
				Op{Kind: OpSettle},
				Op{Kind: OpDiskFault, Node: p, Fault: faults[rnd.Int63n(int64(len(faults)))]},
				burst(),
				Op{Kind: OpKill, Node: p},
				Op{Kind: OpRestart, Node: p},
				burst(),
			)
		}
	}
	return s
}
