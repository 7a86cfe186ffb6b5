package thermosc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"thermosc/internal/cluster"
)

// The self-healing battery: failure detection driving health-aware
// routing, the re-admission sync round delivering missed writes into a
// restarted replica, graceful drain, flapping peers, an asymmetric
// partition, a rolling restart of every node under load, and the
// seed-pinned churn soak the CI job runs with -race.

// probeUntil drives dedicated probes from src against peer until the
// detector reaches wantState (bounded).
func probeUntil(t *testing.T, src *Server, peer, wantState string) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if src.cluster.health.State(peer) == wantState {
			return
		}
		src.cluster.probeOne(ctx, peer)
	}
	if got := src.cluster.health.State(peer); got != wantState {
		t.Fatalf("peer %s stuck in state %q after 20 probes, want %q", peer, got, wantState)
	}
}

// coldBodyOwnedBy finds a request body owned by the given replica that
// no replica has solved yet (distinct from bodiesByOwner's bodies).
func coldBodyOwnedBy(t *testing.T, tc *testCluster, owner string) string {
	t.Helper()
	ring := tc.srvs[0].cluster.ring
	for dt := 0; dt < 400; dt++ {
		b := clusterBody(3, 3, 3, 61+float64(dt)*0.0625)
		if ring.Owner(planKeyFor(t, b)) == owner {
			return b
		}
	}
	t.Fatalf("no probe body owned by %s", owner)
	return ""
}

// Killing a replica walks its detector entry alive → suspect → dead on
// consecutive probe failures; once down, the healthy ring view skips it
// so requests for its keys are answered WITHOUT burning a forward
// attempt, and the health surfaces on /v1/cluster and /v1/stats.
func TestClusterDetectorReroutesAroundDeadPeer(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	victim := 1
	victimURL := tc.urls[victim]
	tc.stopReplica(victim)

	// The second failed probe marks the victim suspect — already down
	// for routing. The fourth marks it dead.
	for i := 0; i < 2; i++ {
		tc.srvs[0].cluster.probeOne(context.Background(), victimURL)
	}
	if got := tc.srvs[0].cluster.health.State(victimURL); got != cluster.StateSuspect {
		t.Fatalf("after 2 failed probes: %q, want suspect", got)
	}
	if !tc.srvs[0].cluster.downForRouting(victimURL) {
		t.Fatal("suspect peer not routed around")
	}
	probeUntil(t, tc.srvs[0], victimURL, cluster.StateDead)

	// The live view hands the victim's keys to a healthy node — never the
	// victim — and agrees with removing the victim from the ring.
	body := coldBodyOwnedBy(t, tc, victimURL)
	key := planKeyFor(t, body)
	reduced := tc.srvs[0].cluster.ring.WithoutNode(victimURL)
	if got := tc.srvs[0].cluster.healthyOwner(key); got == victimURL || got != reduced.Owner(key) {
		t.Fatalf("healthyOwner %q, want removal-ring owner %q (not the victim)", got, reduced.Owner(key))
	}

	// Serving a victim-owned key costs no forward failure: the detector
	// already moved ownership, so there is no doomed proxy attempt.
	fails := tc.srvs[0].cluster.forwardFails.Load()
	status, mr := postMaximize(t, tc.urls[0], body)
	if status != http.StatusOK {
		t.Fatalf("victim-owned request: HTTP %d", status)
	}
	if mr.Source == serveSourceForwarded && tc.srvs[0].cluster.health.Down(reduced.Owner(key)) {
		t.Fatalf("request forwarded to a down successor")
	}
	if got := tc.srvs[0].cluster.forwardFails.Load(); got != fails {
		t.Fatalf("forward failures %d → %d: detection did not pre-empt the doomed forward", fails, got)
	}

	// The detector's view surfaces everywhere observability reads it.
	st := getStats(t, tc.urls[0])
	if st.Cluster.PeersDead != 1 || st.Cluster.PeersAlive != 1 || st.Cluster.ProbesSent == 0 || st.Cluster.ProbeFailures == 0 {
		t.Fatalf("stats detector block: %+v", st.Cluster)
	}
	resp, err := http.Get(tc.urls[0] + "/v1/cluster?timeline=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	var victimPS *PeerStatus
	for i := range cs.Peers {
		if cs.Peers[i].URL == victimURL {
			victimPS = &cs.Peers[i]
		}
	}
	if victimPS == nil || victimPS.Health != cluster.StateDead || victimPS.HealthTransitions < 2 || victimPS.LastProbeUnixS == 0 {
		t.Fatalf("victim peer status: %+v", victimPS)
	}
	if len(cs.Timeline) < 2 || cs.Timeline[len(cs.Timeline)-1].To != cluster.StateDead {
		t.Fatalf("timeline: %+v", cs.Timeline)
	}
}

// Writes made while an owner is dead reach it the moment the detector
// re-admits it — with anti-entropy OFF, so the re-admission sync round
// alone must make the restarted replica byte-identical for the missed
// keys, before any gossip round.
func TestClusterReadmissionSyncsMissedWrites(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	victim := 2
	victimURL := tc.urls[victim]

	tc.stopReplica(victim)
	probeUntil(t, tc.srvs[0], victimURL, cluster.StateDead)

	// Solve three victim-owned keys through replica 0, which stores each
	// solved plan.
	var bodies []string
	refPlans := make(map[string][]byte)
	ring := tc.srvs[0].cluster.ring
	for dt := 0; dt < 600 && len(bodies) < 3; dt++ {
		b := clusterBody(3, 3, 3, 61+float64(dt)*0.0625)
		if ring.Owner(planKeyFor(t, b)) == victimURL {
			bodies = append(bodies, b)
		}
	}
	if len(bodies) < 3 {
		t.Fatal("not enough victim-owned bodies")
	}
	for _, b := range bodies {
		status, mr := postMaximize(t, tc.urls[0], b)
		if status != http.StatusOK {
			t.Fatalf("solve with owner down: HTTP %d", status)
		}
		refPlans[b] = mr.Plan
	}

	// Restart the victim cold. Probation: the first successful probe must
	// NOT sync (the peer could be flapping); the second re-admits it and
	// syncs synchronously.
	tc.restartReplica(t, victim, ServerConfig{}, 0)
	if got := tc.srvs[victim].cluster.store.Len(); got != 0 {
		t.Fatalf("restarted replica store has %d entries before re-admission", got)
	}
	tc.srvs[0].cluster.probeOne(context.Background(), victimURL)
	if st := tc.srvs[0].cluster.health.Health(victimURL); !st.Recovering {
		t.Fatalf("victim not in probation after first good probe: %+v", st)
	}
	if got := tc.srvs[victim].cluster.store.Len(); got != 0 {
		t.Fatalf("re-admission sync ran during probation: %d entries", got)
	}
	tc.srvs[0].cluster.probeOne(context.Background(), victimURL)
	if got := tc.srvs[0].cluster.health.State(victimURL); got != cluster.StateAlive {
		t.Fatalf("victim state %q after probation, want alive", got)
	}

	// The re-admission round (not gossip — SyncInterval is 0 and no other
	// round ran) delivered every missed entry, byte-identical.
	if got := tc.srvs[victim].cluster.store.Len(); got != len(bodies) {
		t.Fatalf("re-admitted store has %d entries, want %d", got, len(bodies))
	}
	for body, want := range refPlans {
		status, mr := postMaximize(t, tc.urls[victim], body)
		if status != http.StatusOK || !mr.Cached {
			t.Fatalf("re-admitted serve: HTTP %d cached=%v, want a store hit", status, mr.Cached)
		}
		if !bytes.Equal(mr.Plan, want) {
			t.Fatal("re-admitted plan differs from the plan served while the owner was down")
		}
	}
}

// A write solved while the writer still holds a stopped owner alive —
// inside the detection window, before enough failures mark it suspect —
// reaches the owner in the sync round that re-admits it.
func TestClusterReadmissionDeliversDetectionWindowWrite(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	victim := 2
	victimURL := tc.urls[victim]
	tc.stopReplica(victim)

	// The forward fails once, below the suspect threshold: replica 0
	// still holds the owner alive and answers with a local solve.
	body := coldBodyOwnedBy(t, tc, victimURL)
	status, ref := postMaximize(t, tc.urls[0], body)
	if status != http.StatusOK {
		t.Fatalf("solve with the owner stopped: HTTP %d", status)
	}
	if got := tc.srvs[0].cluster.forwardFails.Load(); got != 1 {
		t.Fatalf("%d forward failures, want 1", got)
	}
	if got := tc.srvs[0].cluster.health.State(victimURL); got != cluster.StateAlive {
		t.Fatalf("owner state %q after one failed forward, want alive", got)
	}

	probeUntil(t, tc.srvs[0], victimURL, cluster.StateDead)
	tc.restartReplica(t, victim, ServerConfig{}, 0)
	probeUntil(t, tc.srvs[0], victimURL, cluster.StateAlive)

	if _, ok := tc.srvs[victim].cluster.store.Get(planKeyFor(t, body)); !ok {
		t.Fatal("the re-admitted owner lacks the write made during the detection window")
	}
	status, mr := postMaximize(t, tc.urls[victim], body)
	if status != http.StatusOK || !mr.Cached || !bytes.Equal(mr.Plan, ref.Plan) {
		t.Fatalf("re-admitted serve: HTTP %d cached=%v, bytes equal=%v", status, mr.Cached, bytes.Equal(mr.Plan, ref.Plan))
	}
}

// POST /v1/cluster/drain: the replica reports draining on /healthz,
// runs a sync round with every healthy peer, keeps answering
// stragglers, and ?off=1 rejoins.
func TestClusterDrainAndRejoin(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	byOwner := bodiesByOwner(t, tc)
	for owner, body := range byOwner {
		if status, _ := postMaximize(t, owner, body); status != http.StatusOK {
			t.Fatalf("seed solve on %s: HTTP %d", owner, status)
		}
	}

	drained := tc.urls[0]
	ownedBody := byOwner[drained]
	ownedKey := planKeyFor(t, ownedBody)
	resp, err := http.Post(drained+"/v1/cluster/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Draining     bool `json:"draining"`
		Pushed       int  `json:"pushed"`
		Targets      int  `json:"targets"`
		PushFailures int  `json:"push_failures"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: HTTP %d, %v", resp.StatusCode, err)
	}
	// pushed is not pinned: a later round also relays entries pulled in
	// an earlier one, so it depends on the order of the peers.
	if !out.Draining || out.Targets != 2 || out.PushFailures != 0 {
		t.Fatalf("drain result %+v, want clean sync rounds with both peers", out)
	}

	// Both peers — the live-view successor of the owned key among them —
	// hold the drained replica's owned entry.
	if tc.srvs[0].cluster.healthyOwner(ownedKey) == drained {
		t.Fatal("draining replica still owns its key in its own live view")
	}
	for i := 1; i < len(tc.srvs); i++ {
		if _, ok := tc.srvs[i].cluster.store.Get(ownedKey); !ok {
			t.Fatalf("peer %s lacks the drained replica's owned entry", tc.urls[i])
		}
	}

	// /healthz flips to 503 "draining" — what peer probes key off — but
	// stragglers are still answered.
	hz, err := http.Get(drained + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hzBody struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(hz.Body).Decode(&hzBody)
	hz.Body.Close()
	if err != nil || hz.StatusCode != http.StatusServiceUnavailable || hzBody.Status != "draining" {
		t.Fatalf("draining healthz: HTTP %d %+v", hz.StatusCode, hzBody)
	}
	if status, _ := postMaximize(t, drained, ownedBody); status != http.StatusOK {
		t.Fatalf("straggler during drain: HTTP %d", status)
	}
	st := getStats(t, drained)
	if !st.Cluster.Draining || !st.Resilience.Draining {
		t.Fatalf("drain not surfaced in stats: cluster=%v resilience=%v", st.Cluster.Draining, st.Resilience.Draining)
	}
	// A peer probing the draining replica marks it down and routes
	// around it.
	tc.srvs[1].cluster.probeOne(context.Background(), drained)
	tc.srvs[1].cluster.probeOne(context.Background(), drained)
	if !tc.srvs[1].cluster.health.Down(drained) {
		t.Fatal("peer probes did not mark the draining replica down")
	}

	// Rejoin: ?off=1 restores /healthz and the live view.
	offResp, err := http.Post(drained+"/v1/cluster/drain?off=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	offResp.Body.Close()
	hz2, err := http.Get(drained + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz2.Body.Close()
	if hz2.StatusCode != http.StatusOK {
		t.Fatalf("post-rejoin healthz: HTTP %d", hz2.StatusCode)
	}
	if got := tc.srvs[0].cluster.healthyOwner(ownedKey); got != drained {
		t.Fatalf("rejoined replica does not own its key: %q", got)
	}
}

// An asymmetric partition: B rejects A's syncs while B's own contacts
// keep working. A marks B down from the piggybacked gossip failures and
// routes around it; healing re-admits B through probation and the fleet
// converges.
func TestClusterAsymmetricPartition(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	a, b := 0, 1
	bURL, aURL := tc.urls[b], tc.urls[a]
	byOwner := bodiesByOwner(t, tc)
	if status, _ := postMaximize(t, aURL, byOwner[aURL]); status != http.StatusOK {
		t.Fatal("seed solve failed")
	}

	// B rejects inbound sync: A's gossip rounds against B fail, and each
	// failure is a detector observation (the piggyback path — no
	// dedicated probes are running).
	tc.srvs[b].cluster.rejectSync.Store(true)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := tc.srvs[a].cluster.syncNow(ctx, bURL); err == nil {
			t.Fatal("sync through the partition succeeded")
		}
	}
	if got := tc.srvs[a].cluster.health.State(bURL); got != cluster.StateDead {
		t.Fatalf("A's view of B after 4 failed gossips: %q, want dead", got)
	}
	// The asymmetry: B still reaches A fine and considers it alive.
	if _, err := tc.srvs[b].cluster.syncNow(ctx, aURL); err != nil {
		t.Fatalf("B→A sync failed: %v", err)
	}
	if got := tc.srvs[b].cluster.health.State(aURL); got != cluster.StateAlive {
		t.Fatalf("B's view of A: %q, want alive", got)
	}
	// A routes B-owned keys elsewhere while partitioned.
	bBody := coldBodyOwnedBy(t, tc, bURL)
	if got := tc.srvs[a].cluster.healthyOwner(planKeyFor(t, bBody)); got == bURL {
		t.Fatal("A still routes to the partitioned peer")
	}
	if status, _ := postMaximize(t, aURL, bBody); status != http.StatusOK {
		t.Fatalf("B-owned request during partition: HTTP %d", status)
	}

	// Heal: the first successful gossip round converges the pair, handing
	// B the write it missed; the second walks B out of probation.
	tc.srvs[b].cluster.rejectSync.Store(false)
	if _, err := tc.srvs[a].cluster.syncNow(ctx, bURL); err != nil {
		t.Fatalf("first post-heal sync: %v", err)
	}
	if _, ok := tc.srvs[b].cluster.store.Get(planKeyFor(t, bBody)); !ok {
		t.Fatal("the first healing round did not deliver the missed write to B")
	}
	if _, err := tc.srvs[a].cluster.syncNow(ctx, bURL); err != nil {
		t.Fatalf("second post-heal sync: %v", err)
	}
	if got := tc.srvs[a].cluster.health.State(bURL); got != cluster.StateAlive {
		t.Fatalf("B not re-admitted after healing: %q", got)
	}
	tc.syncAll(t)
	if !tc.converged() {
		t.Fatal("fleet did not converge after healing")
	}
}

// A flapping peer cycles dead→alive repeatedly; every cycle is recorded
// on the timeline, each re-admission delivers the cycle's missed write,
// and the fleet stays consistent.
func TestClusterFlappingPeer(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	flapper := 2
	fURL := tc.urls[flapper]
	ring := tc.srvs[0].cluster.ring

	solved := make(map[string][]byte)
	dt := 0
	nextFlapperBody := func() string {
		for ; dt < 2000; dt++ {
			b := clusterBody(3, 3, 3, 61+float64(dt)*0.0625)
			if _, used := solved[b]; !used && ring.Owner(planKeyFor(t, b)) == fURL {
				dt++
				return b
			}
		}
		t.Fatal("ran out of flapper-owned bodies")
		return ""
	}

	for cycle := 0; cycle < 3; cycle++ {
		tc.stopReplica(flapper)
		probeUntil(t, tc.srvs[0], fURL, cluster.StateDead)
		// A write misses the dead flapper each cycle.
		b := nextFlapperBody()
		status, mr := postMaximize(t, tc.urls[0], b)
		if status != http.StatusOK {
			t.Fatalf("cycle %d solve: HTTP %d", cycle, status)
		}
		solved[b] = mr.Plan

		tc.restartReplica(t, flapper, ServerConfig{}, 0)
		probeUntil(t, tc.srvs[0], fURL, cluster.StateAlive)
		if _, ok := tc.srvs[flapper].cluster.store.Get(planKeyFor(t, b)); !ok {
			t.Fatalf("cycle %d: the re-admitted flapper lacks this cycle's write", cycle)
		}
	}
	h := tc.srvs[0].cluster.health.Health(fURL)
	if h.Transitions < 6 {
		t.Fatalf("flapper logged %d transitions, want >=6 (3 full cycles)", h.Transitions)
	}
	// Each re-admission round handed the flapper's current incarnation
	// every key replica 0 holds, earlier cycles' included; gossip then
	// converges the rest of the fleet.
	tc.syncAll(t)
	for b, want := range solved {
		status, mr := postMaximize(t, fURL, b)
		if status != http.StatusOK || !bytes.Equal(mr.Plan, want) {
			t.Fatalf("flapper serve after heal: HTTP %d, bytes equal=%v", status, bytes.Equal(mr.Plan, want))
		}
	}
	sumInvariant(t, tc)
}

// ?fleet=1 must be bounded by the slowest single peer, not the sum: a
// fleet status call against three hung peers returns within one poll
// deadline because the polls fan out concurrently.
func TestClusterFleetStatusBoundedByHungPeers(t *testing.T) {
	hung := make([]*httptest.Server, 3)
	peerURLs := make([]string, 3)
	for i := range hung {
		hung[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select { // hang until the poller gives up
			case <-r.Context().Done():
			case <-time.After(30 * time.Second):
			}
		}))
		peerURLs[i] = hung[i].URL
		defer hung[i].Close()
	}
	srv := NewServer(ServerConfig{Cluster: &ClusterConfig{Self: "http://self.invalid", Peers: peerURLs}})
	defer srv.Shutdown(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster?fleet=1", nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet status: HTTP %d", rec.Code)
	}
	// Three sequential polls would take 3×fleetStatsTimeout; concurrent
	// fan-out keeps it near one.
	if elapsed > fleetStatsTimeout+2*time.Second {
		t.Fatalf("fleet status took %v with hung peers (sequential polling?)", elapsed)
	}
	var st ClusterStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fleet == nil || st.Fleet.Reachable != 1 || len(st.Fleet.Unreachable) != 3 {
		t.Fatalf("fleet block: %+v", st.Fleet)
	}
}

// A rolling restart of EVERY node under live load: the fleet keeps
// serving, accounting stays exact, no 5xx ever reaches a client, and
// the healed fleet converges byte-identically.
func TestClusterRollingRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("rolling restart battery is not a -short test")
	}
	mutate := func(i int, cfg *ServerConfig) {
		cfg.Cluster = &ClusterConfig{ProbeInterval: 25 * time.Millisecond}
	}
	tc := startTestCluster(t, 3, 100*time.Millisecond, mutate)

	loadCfg := cluster.LoadConfig{
		Targets:  tc.urls,
		Requests: 900,
		RateHz:   300,
		Seed:     17,
		// Small platforms + wide deadlines: every solve is fast even under
		// -race, so errors can only be churn-induced transport failures.
		MaxCores:    9,
		TimeoutMinS: 60,
		TimeoutMaxS: 120,
	}
	sched := loadCfg.Schedule()
	runDur := sched[len(sched)-1]
	events := cluster.RollingRestartSchedule(17, 3, runDur)
	loadCfg.Phases = cluster.PhasesFor(events)

	var report *cluster.LoadReport
	var loadErr error
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		report, loadErr = cluster.RunLoad(context.Background(), loadCfg)
	}()
	for _, ev := range events {
		if wait := ev.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		switch ev.Kind {
		case cluster.ChurnKill:
			tc.stopReplica(ev.Replica)
		case cluster.ChurnRestart:
			cfg := ServerConfig{}
			mutate(ev.Replica, &cfg)
			tc.restartReplica(t, ev.Replica, cfg, 100*time.Millisecond)
		}
	}
	wg.Wait()
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	t.Logf("rolling restart: %d requests → %d served, %d shed, %d errors; statuses %v",
		report.Requests, report.Served, report.Shed, report.Errors, report.ByStatus)

	if sum := report.Served + report.Infeasible + report.Shed + report.Errors; sum != report.Requests {
		t.Fatalf("accounting drift: buckets sum to %d of %d", sum, report.Requests)
	}
	for status := range report.ByStatus {
		switch status {
		case "200", "422", "429", "transport_error":
		default:
			t.Fatalf("client saw status %q during the rolling restart: %v", status, report.ByStatus)
		}
	}
	// Errors are bounded to the victims' downtime: at most the requests
	// the generator aimed directly at a dead replica plus boundary
	// in-flight casualties — far under a third of the run.
	if report.Errors > report.Requests/3 {
		t.Fatalf("%d of %d requests errored — churn was not absorbed", report.Errors, report.Requests)
	}
	if report.Served == 0 || len(report.PlanMismatches) > 0 {
		t.Fatalf("served %d, mismatches %v", report.Served, report.PlanMismatches)
	}
	if len(report.Phases) != len(events)+1 {
		t.Fatalf("report has %d phases, want %d", len(report.Phases), len(events)+1)
	}

	// Post-heal: every replica answers, stores converge.
	tc.syncAll(t)
	for _, body := range bodiesByOwner(t, tc) {
		var ref []byte
		for i, url := range tc.urls {
			status, mr := postMaximize(t, url, body)
			if status != http.StatusOK {
				t.Fatalf("post-heal probe on replica %d: HTTP %d", i, status)
			}
			if ref == nil {
				ref = mr.Plan
			} else if !bytes.Equal(ref, mr.Plan) {
				t.Fatalf("replica %d plan diverges post-heal", i)
			}
		}
	}
	sumInvariant(t, tc)
}

// TestClusterChurnSoak is the flagship chaos battery CI runs with -race
// against both store configurations: a seed-pinned kill/restart
// schedule under sustained zipf load, with phase-split accounting and
// the per-peer health timeline uploaded as artifacts.
//
// THERMOSC_CHURN_REQUESTS scales the request count;
// THERMOSC_CHURN_REPORT / THERMOSC_CHURN_TIMELINE name artifact files;
// THERMOSC_CLUSTER_STORE selects the store configuration (mem, or file
// for a store with a log).
func TestClusterChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak is not a -short test")
	}
	requests := 1200
	if v := os.Getenv("THERMOSC_CHURN_REQUESTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad THERMOSC_CHURN_REQUESTS %q", v)
		}
		requests = n
	}
	rate := float64(requests) / 15
	if rate < 200 {
		rate = 200
	}
	if rate > 3000 {
		rate = 3000
	}

	backendMutate := storeBackendMutate(t)
	mutate := func(i int, cfg *ServerConfig) {
		if backendMutate != nil {
			backendMutate(i, cfg)
		}
		if cfg.Cluster == nil {
			cfg.Cluster = &ClusterConfig{}
		}
		cfg.Cluster.ProbeInterval = 25 * time.Millisecond
	}
	tc := startTestCluster(t, 3, 100*time.Millisecond, mutate)

	loadCfg := cluster.LoadConfig{
		Targets:     tc.urls,
		Requests:    requests,
		RateHz:      rate,
		Curve:       cluster.CurvePoisson,
		Seed:        1,
		MaxCores:    9,
		TimeoutMinS: 60,
		TimeoutMaxS: 120,
	}
	sched := loadCfg.Schedule()
	runDur := sched[len(sched)-1]
	cycles := 3
	events := cluster.ChurnSchedule(1, 3, cycles, runDur)
	loadCfg.Phases = cluster.PhasesFor(events)
	for _, ev := range events {
		t.Logf("churn schedule: %-8s replica %d at %v", ev.Kind, ev.Replica, ev.At.Round(time.Millisecond))
	}

	var report *cluster.LoadReport
	var loadErr error
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		report, loadErr = cluster.RunLoad(context.Background(), loadCfg)
	}()
	for _, ev := range events {
		if wait := ev.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		switch ev.Kind {
		case cluster.ChurnKill:
			tc.stopReplica(ev.Replica)
		case cluster.ChurnRestart:
			cfg := ServerConfig{}
			mutate(ev.Replica, &cfg)
			tc.restartReplica(t, ev.Replica, cfg, 100*time.Millisecond)
		}
	}
	wg.Wait()
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	t.Logf("churn soak: %d requests → %d served, %d shed, %d infeasible, %d errors; statuses %v",
		report.Requests, report.Served, report.Shed, report.Infeasible, report.Errors, report.ByStatus)
	for _, ph := range report.Phases {
		t.Logf("  phase %-10s start %6.2fs: %4d requests, %d errors, p99 %.3fs",
			ph.Name, ph.StartS, ph.Requests, ph.Errors, ph.LatencyP99S)
	}

	if out := os.Getenv("THERMOSC_CHURN_REPORT"); out != "" {
		rb, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(rb, '\n'), 0o644); err != nil {
			t.Fatalf("writing report artifact: %v", err)
		}
	}

	// 1. Zero accounting drift: every request in exactly one bucket, and
	// phase splits re-sum to the totals.
	if sum := report.Served + report.Infeasible + report.Shed + report.Errors; sum != requests {
		t.Fatalf("accounting sums to %d of %d", sum, requests)
	}
	var phSum int
	for _, ph := range report.Phases {
		phSum += ph.Requests
	}
	if phSum != requests {
		t.Fatalf("phase split sums to %d of %d", phSum, requests)
	}

	// 2. No server-generated failure ever reaches a client: the only
	// non-2xx outcomes are deterministic 422s, backpressure 429s, and
	// transport errors from connections into the kill window.
	for status := range report.ByStatus {
		switch status {
		case "200", "422", "429", "transport_error":
		default:
			t.Fatalf("client saw status %q: %v", status, report.ByStatus)
		}
	}
	// Errors bounded to the detection window: each cycle downs one
	// replica for ~1/3 of its segment, and only requests aimed straight
	// at it can fail.
	if report.Errors > report.Requests/3 {
		t.Fatalf("%d of %d requests errored", report.Errors, report.Requests)
	}
	if report.Served == 0 {
		t.Fatal("nothing served")
	}

	// 3. Replication soundness under churn: no key ever produced two
	// different complete plans, across kills, restarts, and re-admissions.
	if len(report.PlanMismatches) > 0 {
		t.Fatalf("divergent plans for keys %v", report.PlanMismatches)
	}

	// 4. The health timeline artifact: every replica's detector saw the
	// churn, and the final state of every peer is alive.
	timelines := make(map[string]json.RawMessage, len(tc.urls))
	transitions := 0
	for i, url := range tc.urls {
		resp, err := http.Get(url + "/v1/cluster?timeline=1")
		if err != nil {
			t.Fatalf("timeline fetch %s: %v", url, err)
		}
		var cs ClusterStatus
		err = json.NewDecoder(resp.Body).Decode(&cs)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		transitions += len(cs.Timeline)
		raw, err := json.Marshal(cs.Timeline)
		if err != nil {
			t.Fatal(err)
		}
		timelines[url] = raw
		for _, p := range cs.Peers {
			if p.Health != cluster.StateAlive {
				t.Fatalf("replica %d still holds %s as %q after the run", i, p.URL, p.Health)
			}
		}
	}
	// Restarted replicas carry fresh detectors, but the survivors of the
	// last cycle must have witnessed it.
	if transitions == 0 {
		t.Fatal("no detector transitions recorded across the whole churn run")
	}
	if out := os.Getenv("THERMOSC_CHURN_TIMELINE"); out != "" {
		rb, err := json.MarshalIndent(timelines, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(rb, '\n'), 0o644); err != nil {
			t.Fatalf("writing timeline artifact: %v", err)
		}
	}

	// 5. Post-heal convergence and byte identity.
	tc.syncAll(t)
	for _, body := range bodiesByOwner(t, tc) {
		var ref []byte
		for i, url := range tc.urls {
			status, mr := postMaximize(t, url, body)
			if status != http.StatusOK {
				t.Fatalf("post-heal probe on replica %d: HTTP %d", i, status)
			}
			if ref == nil {
				ref = mr.Plan
			} else if !bytes.Equal(ref, mr.Plan) {
				t.Fatalf("replica %d plan diverges post-heal", i)
			}
		}
	}

	// 6. Per-node serve-source accounting (per current process).
	sumInvariant(t, tc)
}
