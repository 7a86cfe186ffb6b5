package thermosc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"thermosc/internal/cluster"
)

// The fault-tolerance suite: a static ring survives replica death by
// re-routing (every key stays answerable), a restarted replica recovers
// its plans from its store's log, and a partitioned replica rejoins
// gossip and converges.

// Killing a replica must not take its keys down: forwarding fails over
// to a local solve on whichever replica got the request, and the whole
// fleet keeps answering with bounded latency.
func TestClusterReplicaFailureReroute(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	byOwner := bodiesByOwner(t, tc)
	victim := 1
	victimBody := byOwner[tc.urls[victim]]

	// Healthy path first: replica 0 forwards to the victim.
	if status, mr := postMaximize(t, tc.urls[0], victimBody); status != http.StatusOK || mr.Source != "forwarded" {
		t.Fatalf("pre-kill forward: HTTP %d source %q", status, mr.Source)
	}

	tc.stopReplica(victim)

	// A fresh body owned by the dead replica (the previous one is cached
	// on replica 0 now). Probe until we find one.
	ring := tc.srvs[0].cluster.ring
	var coldBody string
	for dt := 0; dt < 400; dt++ {
		b := clusterBody(3, 3, 3, 61+float64(dt)*0.0625)
		if ring.Owner(planKeyFor(t, b)) == tc.urls[victim] {
			coldBody = b
			break
		}
	}
	if coldBody == "" {
		t.Fatal("no probe body owned by the victim")
	}
	before := tc.srvs[0].cluster.forwardFails.Load()
	status, mr := postMaximize(t, tc.urls[0], coldBody)
	if status != http.StatusOK {
		t.Fatalf("request for a dead replica's key: HTTP %d", status)
	}
	if mr.Source != "local" {
		t.Fatalf("re-routed request source %q, want local (fallback solve)", mr.Source)
	}
	if after := tc.srvs[0].cluster.forwardFails.Load(); after <= before {
		t.Fatalf("forward failure not counted: %d -> %d", before, after)
	}

	// The two survivors absorb a load burst with zero errors and a
	// bounded tail: every request gets a real answer well inside its
	// deadline even though a third of the ring is dark.
	report, err := cluster.RunLoad(context.Background(), cluster.LoadConfig{
		Targets:  []string{tc.urls[0], tc.urls[2]},
		Requests: 300,
		RateHz:   600,
		Seed:     11,
		// ≤9-core platforms + wide deadlines: solves stay fast under the
		// race detector, so any error is a real routing failure.
		MaxCores:    9,
		TimeoutMinS: 60,
		TimeoutMaxS: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors > 0 {
		t.Fatalf("%d errors with one replica down: %v", report.Errors, report.ByStatus)
	}
	if len(report.PlanMismatches) > 0 {
		t.Fatalf("plan mismatches with one replica down: %v", report.PlanMismatches)
	}
	if report.LatencyP99S > 20 {
		t.Fatalf("p99 %.3fs with one replica down exceeds the 20 s bound", report.LatencyP99S)
	}
	sumInvariant(t, tc)
}

// A partitioned replica rejects sync (503), the initiator counts the
// failure, and once the partition heals the fleet converges.
func TestClusterPartitionAndHeal(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	byOwner := bodiesByOwner(t, tc)
	body := byOwner[tc.urls[0]]
	if status, _ := postMaximize(t, tc.urls[0], body); status != http.StatusOK {
		t.Fatal("seeding solve failed")
	}

	// Partition replica 2 out of gossip.
	tc.srvs[2].cluster.rejectSync.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	failsBefore := tc.srvs[0].cluster.syncFails.Load()
	if _, err := tc.srvs[0].cluster.syncNow(ctx, tc.urls[2]); err == nil {
		t.Fatal("sync against a partitioned replica succeeded")
	}
	if got := tc.srvs[0].cluster.syncFails.Load(); got <= failsBefore {
		t.Fatalf("sync failure not counted: %d -> %d", failsBefore, got)
	}
	if got := tc.srvs[2].cluster.store.Len(); got != 0 {
		t.Fatalf("partitioned replica received %d entries", got)
	}
	// Replica 1 still converges with replica 0.
	if _, err := tc.srvs[1].cluster.syncNow(ctx, tc.urls[0]); err != nil {
		t.Fatalf("healthy pair sync failed: %v", err)
	}
	if got := tc.srvs[1].cluster.store.Len(); got == 0 {
		t.Fatal("healthy peer did not replicate around the partition")
	}

	// Heal and converge.
	tc.srvs[2].cluster.rejectSync.Store(false)
	tc.syncAll(t)
	if got := tc.srvs[2].cluster.store.Len(); got != tc.srvs[0].cluster.store.Len() {
		t.Fatalf("healed replica has %d entries, origin %d", got, tc.srvs[0].cluster.store.Len())
	}
	// And the healed replica serves the replicated plan from its store.
	status, mr := postMaximize(t, tc.urls[2], body)
	if status != http.StatusOK || !mr.Cached || mr.Source != "peer" {
		t.Fatalf("healed serve: HTTP %d cached=%v source=%q, want a peer store hit", status, mr.Cached, mr.Source)
	}
}

// A persistently dead peer must not starve gossip: one tick fails over
// to the next peer in rotation, so the healthy pair still converges
// every tick, and the dead peer's failures are counted per peer.
func TestClusterGossipFailoverOnDeadPeer(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	byOwner := bodiesByOwner(t, tc)
	if status, _ := postMaximize(t, tc.urls[0], byOwner[tc.urls[0]]); status != http.StatusOK {
		t.Fatal("seeding solve failed")
	}
	dead := 1
	tc.stopReplica(dead)

	c := tc.srvs[0].cluster
	// Point the rotation cursor at the dead peer: the starvation bug was
	// exactly this state, where every tick burned on the dead peer.
	c.mu.Lock()
	for c.cfg.Peers[c.peerIdx%len(c.cfg.Peers)] != tc.urls[dead] {
		c.peerIdx++
	}
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for tick := 0; tick < 3; tick++ {
		c.syncTick(ctx)
	}
	// Every tick reached the healthy peer despite the dead one leading
	// the rotation each time.
	if got := tc.srvs[2].cluster.store.Len(); got == 0 {
		t.Fatal("healthy peer never synced: dead peer starved the rotation")
	}
	if c.syncFails.Load() < 3 {
		t.Fatalf("dead-peer attempts not counted: %d sync failures, want >=3", c.syncFails.Load())
	}
	c.mu.Lock()
	deadFails := c.peerSeen[tc.urls[dead]].fails
	healthyFails := c.peerSeen[tc.urls[2]].fails
	c.mu.Unlock()
	if deadFails < 3 || healthyFails != 0 {
		t.Fatalf("per-peer failures: dead=%d (want >=3), healthy=%d (want 0)", deadFails, healthyFails)
	}

	// The per-peer counter surfaces in GET /v1/cluster.
	resp, err := http.Get(tc.urls[0] + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range st.Peers {
		if p.URL == tc.urls[dead] {
			found = true
			if p.SyncFailures < 3 || p.LastError == "" {
				t.Fatalf("dead peer status %+v lacks failures", p)
			}
		}
	}
	if !found {
		t.Fatal("dead peer missing from /v1/cluster peers")
	}
}

// A store with a log survives kill-and-restart: a restarted replica
// recovers its replicated plans from its own log — no peer needed — and
// serves them byte-identical to the pre-kill plans.
func TestClusterFileStoreKillRestart(t *testing.T) {
	dir := t.TempDir()
	mutate := func(i int, cfg *ServerConfig) {
		cfg.Cluster = &ClusterConfig{StorePath: filepath.Join(dir, fmt.Sprintf("replica%d.log", i))}
	}
	tc := startTestCluster(t, 3, 0, mutate)
	byOwner := bodiesByOwner(t, tc)
	refPlans := make(map[string][]byte)
	for owner, body := range byOwner {
		status, mr := postMaximize(t, owner, body)
		if status != http.StatusOK {
			t.Fatalf("seeding solve on %s failed", owner)
		}
		refPlans[body] = mr.Plan
	}
	tc.syncAll(t)

	victim := 2
	wantLen := tc.srvs[victim].cluster.store.Len()
	if wantLen < 3 {
		t.Fatalf("victim replicated only %d entries before the kill", wantLen)
	}
	wantEntries := tc.srvs[victim].cluster.store.Entries()
	tc.stopReplica(victim)

	cfg := ServerConfig{}
	mutate(victim, &cfg)
	tc.restartReplica(t, victim, cfg, 0)

	got := tc.srvs[victim].cluster.store
	if got.Len() != wantLen {
		t.Fatalf("restarted store has %d entries, want %d", got.Len(), wantLen)
	}
	if !reflect.DeepEqual(wantEntries, got.Entries()) {
		t.Fatal("restarted store diverges from the pre-kill state")
	}
	// Every seeded key serves from the recovered store — cached, and
	// byte-identical to the pre-kill plan.
	for body, want := range refPlans {
		status, mr := postMaximize(t, tc.urls[victim], body)
		if status != http.StatusOK {
			t.Fatalf("post-restart serve: HTTP %d", status)
		}
		if !mr.Cached {
			t.Fatal("post-restart serve was a cold solve, not a store hit")
		}
		if !bytes.Equal(mr.Plan, want) {
			t.Fatal("post-restart plan differs from the pre-kill plan")
		}
	}
}
