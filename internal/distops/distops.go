// Package distops is the distributed crowd-operator runtime: it executes
// the internal/ops operators against the ring-routed gateway across N
// partitions instead of one in-process engine.
//
// The pipeline has four stages:
//
//  1. A partition-aware planner (planner.go) splits an operator's pair
//     set into per-partition shards on the same consistent-hash ring the
//     gateway routes with, and pins each shard's CrowdData table to its
//     partition by choosing a table name whose project hashes there.
//  2. Task creation fans out through the gateway client's batched
//     AddTasks path with bounded concurrency (core.PublishOptions
//     BatchSize/Concurrency).
//  3. A streaming collector (collector.go) follows each shard project's
//     run feed (platform.Client.RunsAfter: one cursor per shard, a long
//     poll when nothing is new, O(new runs) per round) and emits every
//     new answer as a Verdict the moment it lands, feeding incremental
//     quality inference (quality.OnlineDawidSkene) instead of batching
//     aggregation at drain.
//  4. Cross-node lineage: a persisted manifest records which partition
//     served each shard, so Lineage can reconstruct a run that spanned
//     the cluster (lineage.MergeShards).
//
// Everything rides on CrowdData, so the paper's crash-and-rerun
// contract survives distribution: rerunning CrowdJoin after a crash
// reuses every published task and collected answer on every partition.
package distops

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/quality"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Config tunes a distributed operator run.
type Config struct {
	// Partitions names the ring partitions (leader node names). The
	// ring must be built from the same names the gateway routes with,
	// or shards land on the wrong leaders.
	Partitions []string
	// Vnodes is the ring's virtual-node count; zero means the default
	// the gateway uses.
	Vnodes int
	// Table is the logical table base name; shard tables derive from
	// it.
	Table string
	// Redundancy is answers per task; zero uses the context default.
	Redundancy int
	// BatchSize bounds each AddTasks call; zero means 256.
	BatchSize int
	// Concurrency bounds in-flight AddTasks batches per shard; zero
	// means 4.
	Concurrency int
	// PollInterval is the collector's pause between feed rounds,
	// letting the next request carry a batch; zero means 2ms. A round
	// that finds nothing new long-polls the feed (up to a fixed wait)
	// first, and a round that leaves a full page waiting skips the
	// pause.
	PollInterval time.Duration
	// Clock paces the collector; nil uses the context clock.
	Clock vclock.Clock
	// Quality, when set, receives every verdict incrementally and
	// supplies the final decisions via Finalize — the online Dawid-Skene
	// path. When nil, decisions come from Aggregator at drain.
	Quality *quality.OnlineDawidSkene
	// Aggregator resolves votes when Quality is nil; nil means majority
	// vote, matching the in-process joins.
	Aggregator quality.Aggregator
	// OnVerdict, when set, observes every streamed verdict (after
	// Quality). Useful for progress reporting and tests.
	OnVerdict func(Verdict)
	// Answer makes the crowd answer one shard between publish and
	// collect — the distributed analogue of ops.Answerer. It runs
	// concurrently across shards while the collector streams results.
	Answer func(ShardRun) error
}

func (c Config) batchSize() int {
	if c.BatchSize <= 0 {
		return 256
	}
	return c.BatchSize
}

func (c Config) concurrency() int {
	if c.Concurrency <= 0 {
		return 4
	}
	return c.Concurrency
}

func (c Config) poll() time.Duration {
	if c.PollInterval <= 0 {
		return 2 * time.Millisecond
	}
	return c.PollInterval
}

// ShardRun describes one published shard to the Answer callback.
type ShardRun struct {
	// Partition is the ring partition (leader name) serving the shard.
	Partition string
	// Table is the shard's CrowdData table.
	Table string
	// ProjectID is the shard's platform project.
	ProjectID int64
	// Tasks is how many tasks the shard holds.
	Tasks int
}

// Verdict is one streamed answer, tagged with where it came from.
type Verdict struct {
	// Partition and Table locate the shard that served the answer.
	Partition, Table string
	// Item is the logical item the answer is about (the pair row id for
	// join workloads; the row key otherwise).
	Item string
	// RowKey is the shard row (platform external id).
	RowKey string
	// TaskID and RunID are the platform task and answer ids.
	TaskID, RunID int64
	// Worker and Value are the answer itself.
	Worker, Value string
}

// ShardStats accounts one shard's slice of a run.
type ShardStats struct {
	// Partition and Table locate the shard.
	Partition, Table string
	// Rows is the shard's row count.
	Rows int
	// Tasks is how many platform tasks the shard published.
	Tasks int
	// Answers is how many answers Collect persisted.
	Answers int
	// Streamed is how many verdicts the collector emitted live (before
	// the post-collect reconciliation).
	Streamed int
}

// Result is a distributed join's output.
type Result struct {
	// Matches is the predicted duplicate set, keyed by
	// metrics.PairKey(recordID, recordID).
	Matches map[string]bool
	// Decisions maps item (pair row id) → final decision.
	Decisions map[string]quality.Decision
	// Votes maps item → collected votes, for batch-vs-incremental
	// comparison.
	Votes map[string][]quality.Vote
	// Cost is the crowd spend across all shards.
	Cost metrics.Cost
	// Shards describes each partition's slice, sorted by partition.
	Shards []ShardStats
	// Streamed counts verdicts emitted live by the collectors.
	Streamed int
}

// CrowdJoin executes an entity-resolution/crowd-join pair workload
// across the partitioned cluster: plan shards, fan out task creation,
// stream verdicts into incremental quality inference, collect, decide.
// cc's client must speak to the gateway (or a single node, in which
// case everything lands on one partition).
func CrowdJoin(cc *core.CrowdContext, pairs []ops.ScoredPair, cfg Config) (Result, error) {
	res := Result{
		Matches:   map[string]bool{},
		Decisions: map[string]quality.Decision{},
		Votes:     map[string][]quality.Vote{},
	}
	if len(cfg.Partitions) == 0 {
		return res, fmt.Errorf("distops: no partitions configured")
	}
	if cfg.Table == "" {
		return res, fmt.Errorf("distops: no table name configured")
	}
	if len(pairs) == 0 {
		return res, nil
	}
	clock := cfg.Clock
	if clock == nil {
		clock = cc.Clock()
	}

	// Plan: shard the pair objects across partitions, remembering each
	// item's record ids for the match extraction at the end.
	objects := make([]core.Object, len(pairs))
	type pairIDs struct{ a, b string }
	itemPair := make(map[string]pairIDs, len(pairs))
	for i, sp := range pairs {
		objects[i] = ops.PairObject(sp.A, sp.B)
		itemPair[ops.PairRowID(sp.A.ID, sp.B.ID)] = pairIDs{a: sp.A.ID, b: sp.B.ID}
	}
	shards, err := planShards(cfg, cc.Key, objects)
	if err != nil {
		return res, err
	}

	// Shared verdict sink: incremental quality first, then the
	// caller's observer. Collector goroutines across shards serialize
	// here.
	var (
		emitMu   sync.Mutex
		streamed int
	)
	emit := func(v Verdict) {
		emitMu.Lock()
		streamed++
		if cfg.Quality != nil {
			cfg.Quality.Observe(v.Item, quality.Vote{Worker: v.Worker, Value: v.Value})
		}
		if cfg.OnVerdict != nil {
			cfg.OnVerdict(v)
		}
		emitMu.Unlock()
	}

	outs := make([]shardOut, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh shardPlan) {
			defer wg.Done()
			outs[i] = runShard(cc, cfg, clock, sh, emit)
		}(i, sh)
	}
	wg.Wait()

	for _, out := range outs {
		if out.err != nil && err == nil {
			err = out.err
		}
	}
	if err != nil {
		return res, err
	}
	for _, out := range outs {
		res.Shards = append(res.Shards, out.stats)
		res.Cost.Tasks += out.stats.Tasks
		res.Cost.Answers += out.stats.Answers
		for item, vs := range out.votes {
			res.Votes[item] = append(res.Votes[item], vs...)
		}
	}
	res.Streamed = streamed

	// Decide: incremental model if configured, batch aggregation
	// otherwise. Thanks to the post-collect reconciliation the
	// incremental model has seen exactly the collected vote multiset.
	if cfg.Quality != nil {
		fit := cfg.Quality.Finalize()
		for item := range res.Votes {
			if d, ok := fit.Decisions[item]; ok {
				res.Decisions[item] = d
			}
		}
	} else {
		agg := cfg.Aggregator
		if agg == nil {
			agg = quality.MajorityVote{}
		}
		res.Decisions = agg.Aggregate(res.Votes)
	}
	for item, d := range res.Decisions {
		if d.Value != "Yes" {
			continue
		}
		if p, ok := itemPair[item]; ok {
			res.Matches[metrics.PairKey(p.a, p.b)] = true
		}
	}

	// Persist the manifest so lineage can reconstruct the run from the
	// database alone.
	m := Manifest{Table: cfg.Table, Partitions: cfg.Partitions, Vnodes: cfg.Vnodes}
	for _, out := range outs {
		m.Shards = append(m.Shards, ShardRef{Partition: out.stats.Partition, Table: out.stats.Table})
	}
	if err := saveManifest(cc, m); err != nil {
		return res, err
	}
	return res, nil
}

// shardOut is one shard's contribution to the run.
type shardOut struct {
	stats ShardStats
	votes map[string][]quality.Vote
	err   error
}

// runShard drives one shard end to end: publish through the gateway,
// stream verdicts while the crowd answers, collect, reconcile.
func runShard(cc *core.CrowdContext, cfg Config, clock vclock.Clock, sh shardPlan, emit func(Verdict)) (out shardOut) {
	out.stats = ShardStats{Partition: sh.partition, Table: sh.table, Rows: len(sh.objects)}
	out.votes = map[string][]quality.Vote{}
	fail := func(err error) shardOut {
		out.err = fmt.Errorf("distops: shard %s on %s: %w", sh.table, sh.partition, err)
		return out
	}

	cd, err := cc.CrowdData(sh.objects, sh.table)
	if err != nil {
		return fail(err)
	}
	cd.SetPresenter(core.TextPair("Do these two records refer to the same entity?"))
	if _, err := cd.Publish(core.PublishOptions{
		Redundancy:  cfg.Redundancy,
		BatchSize:   cfg.batchSize(),
		Concurrency: cfg.concurrency(),
	}); err != nil {
		return fail(err)
	}
	pid, err := cd.ProjectID()
	if err != nil {
		return fail(err)
	}

	info := make(map[int64]taskIdent, cd.Len())
	for _, row := range cd.Rows() {
		if row.Task == nil {
			return fail(fmt.Errorf("row %s unpublished", row.Key))
		}
		info[row.Task.PlatformTaskID] = taskIdent{item: itemOf(row.Object, row.Key), rowKey: row.Key, redundancy: row.Task.Redundancy}
		out.stats.Tasks++
	}

	coll := newCollector(collector{
		client:    cc.Client(),
		projectID: pid,
		partition: sh.partition,
		table:     sh.table,
		poll:      cfg.poll(),
		clock:     clock,
		info:      info,
		emit:      emit,
	})
	stop := make(chan struct{})
	collDone := make(chan error, 1)
	go func() { collDone <- coll.run(stop) }()

	var answerErr error
	if cfg.Answer != nil {
		answerErr = cfg.Answer(ShardRun{
			Partition: sh.partition,
			Table:     sh.table,
			ProjectID: pid,
			Tasks:     out.stats.Tasks,
		})
	}
	close(stop)
	collErr := <-collDone
	if answerErr != nil {
		return fail(fmt.Errorf("answer: %w", answerErr))
	}
	if collErr != nil {
		return fail(fmt.Errorf("collect stream: %w", collErr))
	}

	if _, err := cd.Collect(); err != nil {
		return fail(err)
	}
	// Reconcile: any answer Collect persisted that the collector missed
	// (it stops when every task reaches redundancy) still reaches the
	// incremental model, so streaming and batch see the same multiset.
	for _, row := range cd.Rows() {
		if row.Result == nil {
			continue
		}
		item := itemOf(row.Object, row.Key)
		for _, a := range row.Result.Answers {
			out.votes[item] = append(out.votes[item], quality.Vote{Worker: a.Worker, Value: a.Value})
		}
		out.stats.Answers += len(row.Result.Answers)
		have := coll.streamed[row.Task.PlatformTaskID]
		if len(row.Result.Answers) > have {
			for _, a := range row.Result.Answers[have:] {
				emit(Verdict{
					Partition: sh.partition,
					Table:     sh.table,
					Item:      item,
					RowKey:    row.Key,
					TaskID:    row.Task.PlatformTaskID,
					RunID:     a.RunID,
					Worker:    a.Worker,
					Value:     a.Value,
				})
			}
		}
		out.stats.Streamed += have
	}
	return out
}

// itemOf maps a row to its logical item: pair rows use the pair row id,
// anything else falls back to the row key.
func itemOf(obj core.Object, rowKey string) string {
	if a, b := obj["id_a"], obj["id_b"]; a != "" && b != "" {
		return ops.PairRowID(a, b)
	}
	return rowKey
}

// Manifest records how a distributed run was sharded, persisted next to
// the shard tables so lineage works from the database alone.
type Manifest struct {
	// Table is the logical table base name.
	Table string `json:"table"`
	// Partitions and Vnodes reproduce the planner's ring.
	Partitions []string `json:"partitions"`
	Vnodes     int      `json:"vnodes"`
	// Shards maps each shard table to the partition that served it.
	Shards []ShardRef `json:"shards"`
}

// ShardRef locates one shard of a distributed run.
type ShardRef struct {
	// Partition is the ring partition (leader name).
	Partition string `json:"partition"`
	// Table is the shard's CrowdData table.
	Table string `json:"table"`
}

// manifestKey namespaces distributed-run manifests in the context
// database ("d/" alongside core's "t/", "r/", "o/", "m/" columns).
func manifestKey(table string) string { return "d/" + table }

func saveManifest(cc *core.CrowdContext, m Manifest) error {
	sort.Slice(m.Shards, func(i, j int) bool {
		if m.Shards[i].Partition != m.Shards[j].Partition {
			return m.Shards[i].Partition < m.Shards[j].Partition
		}
		return m.Shards[i].Table < m.Shards[j].Table
	})
	buf, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("distops: encode manifest: %w", err)
	}
	b := storage.NewBatch()
	b.Put([]byte(manifestKey(m.Table)), buf)
	if err := cc.DB().Apply(b); err != nil {
		return err
	}
	return cc.DB().Sync()
}

// LoadManifest reads the persisted manifest of a distributed run.
func LoadManifest(cc *core.CrowdContext, table string) (Manifest, error) {
	buf, ok, err := cc.DB().Get([]byte(manifestKey(table)))
	if err != nil {
		return Manifest{}, err
	}
	if !ok {
		return Manifest{}, fmt.Errorf("distops: no distributed run recorded for table %q", table)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return Manifest{}, fmt.Errorf("distops: decode manifest: %w", err)
	}
	return m, nil
}

// Lineage reconstructs the cluster-spanning lineage of a distributed
// run from the database alone: the manifest names each shard and its
// partition, each shard table is reloaded and summarized, and the
// slices merge into one report.
func Lineage(cc *core.CrowdContext, table string) (lineage.DistReport, error) {
	m, err := LoadManifest(cc, table)
	if err != nil {
		return lineage.DistReport{}, err
	}
	shards := make([]lineage.ShardLineage, 0, len(m.Shards))
	for _, ref := range m.Shards {
		cd, err := cc.LoadTable(ref.Table)
		if err != nil {
			return lineage.DistReport{}, fmt.Errorf("distops: load shard %s: %w", ref.Table, err)
		}
		rep, err := lineage.Summarize(cc, cd)
		if err != nil {
			return lineage.DistReport{}, fmt.Errorf("distops: summarize shard %s: %w", ref.Table, err)
		}
		shards = append(shards, lineage.ShardLineage{Partition: ref.Partition, Table: ref.Table, Report: rep})
	}
	return lineage.MergeShards(m.Table, shards), nil
}
