package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The node settings below are the reprowd-server and reprowd-gate
// defaults; every run prints them (see settingsLine).
const (
	checkpointEvery = 4096     // -snapshot-every
	checkpointBytes = 16 << 20 // -snapshot-bytes
	probeInterval   = 500 * time.Millisecond
)

func settingsLine() string {
	return fmt.Sprintf("settings: -sync always, binary journal, checkpoint every %d events / %d MiB, read cache on, probe %s, max lag %d, generator cap %d in flight",
		checkpointEvery, checkpointBytes>>20, probeInterval, gate.DefaultMaxLag, genCap())
}

// genCap is how many generator requests may be in flight at once: one
// per CPU, so the load generator cannot swamp the box it shares with the
// cluster.
func genCap() int { return runtime.NumCPU() }

// node is one platform server stood up from the public constructors,
// wired the way cmd/reprowd-server wires it, listening on loopback.
type node struct {
	name, role string
	reg        *obs.Registry
	fs         *countFS // nil in untraced runs
	db         *storage.DB
	j          *platform.Journal
	engine     *platform.Engine
	cp         *platform.Checkpointer
	rn         *repl.Node
	hs         *httptest.Server
}

func (n *node) url() string { return n.hs.URL }

// startLeader opens (or reopens) a journaled leader in dir. ownsID
// restricts id allocation to the node's ring partition (nil: all ids).
func startLeader(dir, name string, ownsID func(int64) bool, tr *tracer) (*node, error) {
	n := &node{name: name, role: "leader", reg: obs.New()}
	sopts := storage.Options{
		Sync:         storage.SyncAlways,
		SyncInterval: 50 * time.Millisecond,
		Metrics:      n.reg,
	}
	if tr != nil {
		n.fs = &countFS{}
		sopts.FS = n.fs
	}
	var err error
	if n.db, err = storage.Open(dir, sopts); err != nil {
		return nil, fmt.Errorf("leader %s: %w", name, err)
	}
	if n.j, err = platform.OpenJournalOpts(n.db, platform.JournalOptions{Metrics: n.reg}); err != nil {
		n.close()
		return nil, fmt.Errorf("leader %s: %w", name, err)
	}
	n.engine, err = platform.NewEngineOpts(platform.EngineOptions{
		Clock:   sim.RealClock(),
		Journal: n.j,
		OwnsID:  ownsID,
		Metrics: n.reg,
	})
	if err != nil {
		n.close()
		return nil, fmt.Errorf("leader %s: %w", name, err)
	}
	n.cp, err = platform.NewCheckpointer(n.engine, platform.CheckpointOptions{
		EveryEvents: checkpointEvery,
		EveryBytes:  checkpointBytes,
	})
	if err != nil {
		n.close()
		return nil, fmt.Errorf("leader %s: %w", name, err)
	}
	n.rn = repl.NewLeaderNode(n.engine, n.j, n.db)
	n.rn.SetIdentity(name, name)
	srv := platform.NewServer(n.engine)
	srv.Handle("/api/repl/", n.rn.Handler())
	srv.Handle("GET /metrics", n.reg.Handler())
	n.hs = httptest.NewServer(tr.handler("leader", name, srv))
	return n, nil
}

// startFollower bootstraps an in-memory read replica of leader.
func startFollower(name string, leader *node, ownsID func(int64) bool, tr *tracer) (*node, error) {
	n := &node{name: name, role: "follower", reg: obs.New()}
	tp := http.DefaultTransport.(*http.Transport).Clone()
	rn, err := repl.NewFollowerNode(repl.FollowerOptions{
		LeaderURL: leader.url(),
		Clock:     sim.RealClock(),
		Rand:      sim.RealRand(),
		HTTP:      &http.Client{Transport: tr.transport("follower.http", false, tp)},
		OwnsID:    ownsID,
		Metrics:   n.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("follower %s: %w", name, err)
	}
	n.rn, n.engine = rn, rn.Engine()
	srv := platform.NewServer(n.engine)
	srv.Handle("/api/repl/", rn.Handler())
	srv.Handle("GET /metrics", n.reg.Handler())
	n.hs = httptest.NewServer(tr.handler("follower", name, srv))
	return n, nil
}

// appliedSeq is the journal position the node's state reflects.
func (n *node) appliedSeq() uint64 {
	if n.role == "follower" {
		return n.rn.Follower().AppliedSeq()
	}
	return n.j.Len()
}

// close shuts the node down in cmd/reprowd-server's order: stop serving,
// drain the journal, stop the checkpointer, detach replication, close
// the store.
func (n *node) close() error {
	if n.hs != nil {
		n.hs.Close()
	}
	var errs []error
	if n.j != nil {
		errs = append(errs, n.j.Close())
	}
	if n.cp != nil {
		n.cp.Close()
	}
	if n.rn != nil {
		errs = append(errs, n.rn.Close())
	}
	if n.db != nil {
		errs = append(errs, n.db.Close())
	}
	return errors.Join(errs...)
}

// gateway is a reprowd-gate stood up in process.
type gateway struct {
	g   *gate.Gateway
	reg *obs.Registry
	hs  *httptest.Server
}

func startGateway(nodes []*node, tr *tracer) (*gateway, error) {
	gw := &gateway{reg: obs.New()}
	top := gate.Topology{}
	for _, n := range nodes {
		top.Nodes = append(top.Nodes, gate.NodeConfig{Name: n.name, URL: n.url()})
	}
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConns, tp.MaxIdleConnsPerHost = 256, 128
	g, err := gate.New(gate.Options{
		Topology:      top,
		ProbeInterval: probeInterval,
		HTTP:          &http.Client{Timeout: 30 * time.Second, Transport: tr.transport("gate.http", false, tp)},
		Metrics:       gw.reg,
		ReadCache:     true,
		Clock:         sim.RealClock(),
		Rand:          sim.RealRand(),
	})
	if err != nil {
		return nil, err
	}
	gw.g = g
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", gw.reg.Handler())
	mux.Handle("/", g)
	gw.hs = httptest.NewServer(tr.handler("gate", "gate", mux))
	return gw, nil
}

func (gw *gateway) url() string { return gw.hs.URL }

func (gw *gateway) close() {
	gw.hs.Close()
	gw.g.Close()
}

// genClient is the load generator's platform client for the gateway at
// baseURL, over a transport capped at genCap connections per host.
func genClient(baseURL string, tr *tracer) *countingClient {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxConnsPerHost, tp.MaxIdleConnsPerHost = genCap(), genCap()
	hc := &http.Client{Transport: tr.transport("http.client", true, tp)}
	return newCountingClient(platform.NewGatewayHTTPClient(baseURL, hc))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
