package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/repl"
)

// TestGatewayFeedRoutesToLeaderUncached pins the run feed's routing: with
// a caught-up follower available and the read cache on, feed reads go to
// the partition's leader every time, leave the cache's hit/miss counters
// and the follower untouched, and carry the client's trace id to the
// leader.
func TestGatewayFeedRoutesToLeaderUncached(t *testing.T) {
	ringNames := []string{"n1"}
	l1, _, leaderLogs := startObsLeader(t, "n1", ringNames)
	defer l1.close()
	f1, _, followerLogs := startObsFollower(t, "f1", l1.hs.URL)
	defer f1.close()
	g := newCachedTestGateway(t, DefaultMaxLag, l1, f1)
	gs := httptest.NewServer(g)
	defer gs.Close()
	waitSnapshot(t, g, "leader ready", func(st Status) bool { return st.Ready })

	client := platform.NewGatewayHTTPClient(gs.URL, nil)
	p, err := client.EnsureProject(platform.ProjectSpec{Name: nameOwnedBy(repl.NewRing(0, ringNames...), "n1", "feed"), Redundancy: 2})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := client.AddTasks(p.ID, []platform.TaskSpec{{ExternalID: "a"}, {ExternalID: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if _, err := client.Submit(task.ID, "w1", "yes"); err != nil {
			t.Fatal(err)
		}
	}
	waitSnapshot(t, g, "follower caught up", func(st Status) bool {
		for _, n := range st.Nodes {
			if n.Name == "f1" && n.Role == repl.RoleFollower && n.Ready && n.Lag == 0 {
				return true
			}
		}
		return false
	})

	reads := func() (leader, follower uint64) {
		for _, n := range g.Snapshot().Nodes {
			switch n.Name {
			case "n1":
				leader = n.Reads
			case "f1":
				follower = n.Reads
			}
		}
		return leader, follower
	}
	before := g.Snapshot().Stats
	leader0, follower0 := reads()

	// The same URL twice: a cacheable read would hit the second time.
	const trace = "feed-trace-7f3a"
	const rounds = 2
	for i := 0; i < rounds; i++ {
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/api/projects/%d/runs?after=", gs.URL, p.ID), nil)
		req.Header.Set(obs.HeaderTrace, trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var page platform.RunPage
		err = json.NewDecoder(resp.Body).Decode(&page)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("feed through gateway: HTTP %d, %v", resp.StatusCode, err)
		}
		if len(page.Runs) != len(tasks) {
			t.Fatalf("feed through gateway: %d runs, want %d", len(page.Runs), len(tasks))
		}
		if got := resp.Header.Values(obs.HeaderTrace); len(got) != 1 || got[0] != trace {
			t.Fatalf("feed response trace header = %q, want exactly [%q]", got, trace)
		}
	}
	page, err := client.RunsAfter(p.ID, "", 0)
	if err != nil || len(page.Runs) != len(tasks) {
		t.Fatalf("client feed through gateway = %d runs, %v; want %d", len(page.Runs), err, len(tasks))
	}

	after := g.Snapshot().Stats
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatalf("feed reads moved the read cache counters: hits %d->%d, misses %d->%d",
			before.CacheHits, after.CacheHits, before.CacheMisses, after.CacheMisses)
	}
	if after.ReadsFollower != before.ReadsFollower || after.ReadsLeader != before.ReadsLeader {
		t.Fatalf("feed reads booked as follower/leader-fallback reads: %+v -> %+v", before, after)
	}
	leader1, follower1 := reads()
	if leader1-leader0 != rounds+1 || follower1 != follower0 {
		t.Fatalf("feed reads served leader +%d follower +%d, want leader +%d only",
			leader1-leader0, follower1-follower0, rounds+1)
	}
	if !strings.Contains(leaderLogs.String(), trace) {
		t.Fatalf("leader access log lacks the feed's trace id %q", trace)
	}
	if strings.Contains(followerLogs.String(), trace) {
		t.Fatalf("follower served a feed read (trace %q in its log)", trace)
	}
}
