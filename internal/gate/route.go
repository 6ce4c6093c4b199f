package gate

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/platform"
	"repro/internal/repl"
)

// reqClass is what a request needs from the topology.
type reqClass int

const (
	classUnknown      reqClass = iota
	classWrite                 // partition write → owning leader
	classRead                  // partition read → owner's followers, else owner
	classEnsure                // PUT /api/projects: name-placed write
	classListProjects          // GET /api/projects: merge across partitions
	classFind                  // GET /api/projects/find: first partition that knows the name
	classNodeStats             // GET /api/stats: per-node stats, keyed by node name
	classFeed                  // GET /api/projects/{id}/runs: run feed → owning leader, never cached
)

// plan is one classified request.
type plan struct {
	class   reqClass
	scope   string // learned-route cache key ("p/<id>", "t/<id>", "n/<name>")
	key     uint64 // shard key routing the partition
	haveKey bool
	name    string // project name (ensure/find)
}

// classify maps a request path onto the platform API's routing needs.
// The shard-key header, when a gateway-mode client sent one, overrides
// the id-derived key — that is the "route blind" fast path (and the only
// key available if this gateway never saw the id before and the ring
// has drifted since the id was created).
func classify(r *http.Request) plan {
	pl := plan{class: classUnknown}
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	get := r.Method == http.MethodGet || r.Method == http.MethodHead

	switch {
	case len(seg) == 2 && seg[0] == "api" && seg[1] == "projects":
		if r.Method == http.MethodPut {
			pl.class = classEnsure
		} else if get {
			pl.class = classListProjects
		}
	case len(seg) == 3 && seg[0] == "api" && seg[1] == "projects" && seg[2] == "find":
		if get {
			pl.class = classFind
			pl.name = r.URL.Query().Get("name")
			pl.scope = "n/" + pl.name
		}
	case len(seg) == 2 && seg[0] == "api" && seg[1] == "stats":
		if get {
			pl.class = classNodeStats
		}
	case len(seg) == 4 && seg[0] == "api" && seg[1] == "projects":
		if id, err := strconv.ParseInt(seg[2], 10, 64); err == nil {
			pl.scope = "p/" + seg[2]
			pl.key, pl.haveKey = platform.ShardKey(id), true
			switch seg[3] {
			case "tasks":
				if get {
					pl.class = classRead
				} else if r.Method == http.MethodPost {
					pl.class = classWrite
				}
			case "newtask", "ban":
				if r.Method == http.MethodPost {
					pl.class = classWrite
				}
			case "stats", "queue":
				if get {
					pl.class = classRead
				}
			case "runs":
				if get {
					pl.class = classFeed
				}
			}
		}
	case len(seg) == 4 && seg[0] == "api" && seg[1] == "tasks" && seg[3] == "runs":
		if id, err := strconv.ParseInt(seg[2], 10, 64); err == nil {
			pl.scope = "t/" + seg[2]
			pl.key, pl.haveKey = platform.ShardKey(id), true
			if get {
				pl.class = classRead
			} else if r.Method == http.MethodPost {
				pl.class = classWrite
			}
		}
	case len(seg) == 3 && seg[0] == "tasks" && seg[2] == "preview":
		if id, err := strconv.ParseInt(seg[1], 10, 64); err == nil && get {
			pl.scope = "t/" + seg[1]
			pl.key, pl.haveKey = platform.ShardKey(id), true
			pl.class = classRead
		}
	}
	if hdr := r.Header.Get(platform.HeaderShardKey); hdr != "" {
		if key, err := strconv.ParseUint(hdr, 10, 64); err == nil {
			pl.key, pl.haveKey = key, true
		}
	}
	return pl
}

// target is one node a request may be forwarded to, tagged with the
// partition it belongs to so a success can be learned under the
// request's scope (and writes stamped with the partition's epoch token).
type target struct {
	node      *nodeState
	partition string
}

// ownerChainLocked resolves the ordered partition candidates for a plan:
// the learned owner first (if some node still leads it), then the ring
// walk — owner, successor, successor's successor. The order is pure ring
// order; health does not move the anchor (reads anchored on a down
// leader are still served by its followers). Callers hold g.mu (read
// side).
func (g *Gateway) ownerChainLocked(pl plan) []string {
	var names []string
	if pl.scope != "" {
		if cached, ok := g.routes[pl.scope]; ok {
			if g.partLeaderLocked(cached) != nil {
				names = append(names, cached)
			}
		}
	}
	var walk []string
	switch {
	case pl.haveKey:
		walk = g.ring.CandidatesKey(pl.key, 0)
	case pl.name != "":
		walk = g.ring.CandidatesString(pl.name, 0)
	default:
		walk = g.ring.Nodes()
	}
	for _, n := range walk {
		if len(names) == 0 || n != names[0] {
			names = append(names, n)
		}
	}
	return names
}

// writeTargets plans a partition write (and a run feed read, which must
// see the leader's log): the owner chain, each partition
// resolved to the node currently leading it, with leaders the prober
// last saw unhealthy moved behind healthy ones (they stay in the list —
// a probe can be stale) so an owner outage fails over to the next ring
// candidate without waiting out a dead connection first.
func (g *Gateway) writeTargets(pl plan) []target {
	g.mu.RLock()
	defer g.mu.RUnlock()
	chain := g.ownerChainLocked(pl)
	healthy := make([]target, 0, len(chain))
	var sick []target
	for _, name := range chain {
		n := g.partLeaderLocked(name)
		if n == nil {
			continue
		}
		if n.reachable && n.ready && !n.fenced {
			healthy = append(healthy, target{node: n, partition: name})
		} else {
			sick = append(sick, target{node: n, partition: name})
		}
	}
	return append(healthy, sick...)
}

// followerTargetsLocked lists the caught-up followers of one partition's
// leader (role, reachability, readiness, lag ≤ MaxLag), rotated by the
// round-robin cursor so consecutive reads spread across them. The single
// definition of read-replica eligibility — readTargets and
// partitionReadTargets must never disagree on it. Callers hold g.mu
// (read side).
func (g *Gateway) followerTargetsLocked(owner string, ownerNode *nodeState) []target {
	var followers []*nodeState
	for _, n := range g.nodes {
		if n.role != repl.RoleFollower || !n.reachable || !n.ready || n.lag > g.opts.MaxLag {
			continue
		}
		// Partition association: the follower's own probed identity when it
		// has one, else the classic leader-URL match (pre-identity nodes).
		if n.partition != owner && (ownerNode == nil || n.leaderURL != ownerNode.cfg.url) {
			continue
		}
		followers = append(followers, n)
	}
	if len(followers) == 0 {
		return nil
	}
	// Map iteration order is random but not uniformly rotating; an
	// explicit cursor spreads consecutive reads across followers.
	// (Modulo in uint64 first: truncating the counter to int would go
	// negative on 32-bit platforms.)
	start := int(g.rr.Add(1) % uint64(len(followers)))
	out := make([]target, 0, len(followers))
	for i := range followers {
		out = append(out, target{node: followers[(start+i)%len(followers)], partition: owner})
	}
	return out
}

// readTargets plans a partition read: caught-up followers of the owning
// leader (rotated round-robin), then the leader itself, then — should the
// whole partition be out — the rest of the owner chain.
func (g *Gateway) readTargets(pl plan) []target {
	g.mu.RLock()
	defer g.mu.RUnlock()
	chain := g.ownerChainLocked(pl)
	if len(chain) == 0 {
		return nil
	}
	owner := chain[0]
	out := g.followerTargetsLocked(owner, g.partLeaderLocked(owner))
	for _, name := range chain {
		if n := g.partLeaderLocked(name); n != nil {
			out = append(out, target{node: n, partition: name})
		}
	}
	return out
}

// leaderTargets lists every partition's current leader (for discovery
// fan-outs and cross-partition merges), reachable ones first, excluding
// `skip` partitions.
func (g *Gateway) leaderTargets(skip map[string]bool) []target {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var healthy, sick []target
	for _, name := range g.ring.Nodes() {
		n := g.partLeaderLocked(name)
		if n == nil || skip[name] {
			continue
		}
		if n.reachable && n.ready && !n.fenced {
			healthy = append(healthy, target{node: n, partition: name})
		} else {
			sick = append(sick, target{node: n, partition: name})
		}
	}
	return append(healthy, sick...)
}

// partitionReadTargets is readTargets for a named partition — the merge
// endpoints use it so even cross-partition lists are served by followers
// when possible.
func (g *Gateway) partitionReadTargets(leader string) []target {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ownerNode := g.partLeaderLocked(leader)
	out := g.followerTargetsLocked(leader, ownerNode)
	if ownerNode == nil {
		return out
	}
	return append(out, target{node: ownerNode, partition: leader})
}
