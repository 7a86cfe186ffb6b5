package thermosc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"thermosc/internal/cluster"
)

// testCluster is an in-process replica fleet: n Servers, each with its
// own listener and a ring spanning all of them. Used by the cluster
// unit tests, the fault-tolerance suite, and the soak.
type testCluster struct {
	urls  []string
	srvs  []*Server
	https []*http.Server
}

// startTestCluster boots n replicas on ephemeral ports. mutate (may be
// nil) can adjust each replica's ServerConfig before construction; the
// Cluster field is filled in afterwards, so mutate only tunes the
// serving knobs.
func startTestCluster(t *testing.T, n int, syncInterval time.Duration, mutate func(i int, cfg *ServerConfig)) *testCluster {
	t.Helper()
	lns := make([]net.Listener, n)
	tc := &testCluster{urls: make([]string, n), srvs: make([]*Server, n), https: make([]*http.Server, n)}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tc.urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		cfg := ServerConfig{}
		if mutate != nil {
			mutate(i, &cfg)
		}
		tc.startReplica(t, i, lns[i], cfg, syncInterval)
	}
	t.Cleanup(func() {
		for i := range tc.srvs {
			tc.stopReplica(i)
		}
	})
	return tc
}

func (tc *testCluster) startReplica(t *testing.T, i int, ln net.Listener, cfg ServerConfig, syncInterval time.Duration) {
	t.Helper()
	peers := make([]string, 0, len(tc.urls)-1)
	for j, u := range tc.urls {
		if j != i {
			peers = append(peers, u)
		}
	}
	cc := &ClusterConfig{}
	if cfg.Cluster != nil {
		// mutate may pre-set the store path and probe interval; topology
		// stays ours.
		*cc = *cfg.Cluster
	}
	cc.Self, cc.Peers, cc.SyncInterval = tc.urls[i], peers, syncInterval
	cfg.Cluster = cc
	srv := NewServer(cfg)
	hs := &http.Server{Handler: srv}
	tc.srvs[i], tc.https[i] = srv, hs
	go func() { _ = hs.Serve(ln) }()
}

// storeBackendMutate honors THERMOSC_CLUSTER_STORE so the soak suite
// runs once per store configuration: "file" gives every replica's store
// an append-only log under a per-test temp dir; empty or "mem" keeps
// the store in memory only.
func storeBackendMutate(t *testing.T) func(i int, cfg *ServerConfig) {
	t.Helper()
	switch backend := os.Getenv("THERMOSC_CLUSTER_STORE"); backend {
	case "", "mem":
		return nil
	case "file":
		dir := t.TempDir()
		return func(i int, cfg *ServerConfig) {
			cfg.Cluster = &ClusterConfig{StorePath: filepath.Join(dir, fmt.Sprintf("replica%d.log", i))}
		}
	default:
		t.Fatalf("bad THERMOSC_CLUSTER_STORE %q (want mem or file)", backend)
		return nil
	}
}

// stopReplica kills replica i: the listener closes and its gossip loop
// stops, as a crashed process would (modulo kernel-held TIME_WAITs).
func (tc *testCluster) stopReplica(i int) {
	if tc.https[i] == nil {
		return
	}
	_ = tc.https[i].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = tc.srvs[i].Shutdown(ctx)
	cancel()
	tc.https[i] = nil
}

// restartReplica rebinds replica i's original address with a fresh
// (cold) Server.
func (tc *testCluster) restartReplica(t *testing.T, i int, cfg ServerConfig, syncInterval time.Duration) {
	t.Helper()
	addr := tc.urls[i][len("http://"):]
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	tc.startReplica(t, i, ln, cfg, syncInterval)
	// Pooled keep-alive connections to the old process would be served
	// an EOF by the kernel; drop them so the next request redials.
	http.DefaultClient.CloseIdleConnections()
	for j, srv := range tc.srvs {
		if j != i && tc.https[j] != nil {
			srv.cluster.client.CloseIdleConnections()
		}
	}
}

// syncAll drives pairwise anti-entropy rounds until every replica's
// store holds the same keys and plan bytes (or fails the test after a
// bounded number of sweeps).
func (tc *testCluster) syncAll(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for sweep := 0; sweep < 10; sweep++ {
		for i, srv := range tc.srvs {
			if tc.https[i] == nil {
				continue
			}
			for j, peer := range tc.urls {
				if j == i || tc.https[j] == nil {
					continue
				}
				if _, err := srv.cluster.syncNow(ctx, peer); err != nil {
					t.Fatalf("sync %s -> %s: %v", tc.urls[i], peer, err)
				}
			}
		}
		if tc.converged() {
			return
		}
	}
	t.Fatal("cluster did not converge after 10 anti-entropy sweeps")
}

func (tc *testCluster) converged() bool {
	var ref []cluster.Entry
	for i, srv := range tc.srvs {
		if tc.https[i] == nil {
			continue
		}
		ents := srv.cluster.store.Entries()
		if ref == nil {
			ref = ents
		} else if !reflect.DeepEqual(ents, ref) {
			return false
		}
	}
	return true
}

func clusterBody(rows, cols, levels int, tmax float64) string {
	return fmt.Sprintf(`{"platform":{"rows":%d,"cols":%d,"paper_levels":%d},"tmax_c":%g,"method":"AO"}`, rows, cols, levels, tmax)
}

func postMaximize(t *testing.T, url, body string) (int, MaximizeResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/maximize", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var mr MaximizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(rb, &mr); err != nil {
			t.Fatalf("decoding response: %v\n%s", err, rb)
		}
	}
	return resp.StatusCode, mr
}

func getStats(t *testing.T, url string) ServerStats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// planKeyFor computes the canonical plan key for a request body the way
// the server does — tests use it to find which replica owns a key.
func planKeyFor(t *testing.T, body string) string {
	t.Helper()
	_, planKey, _, err := parseMaximizeRequest([]byte(body), ServerConfig{}.withDefaults().limits())
	if err != nil {
		t.Fatalf("parsing %q: %v", body, err)
	}
	return planKey
}

// bodiesByOwner solves the routing riddle for tests: returns one
// request body owned by each replica, probing tmax variations until
// every replica owns at least one.
func bodiesByOwner(t *testing.T, tc *testCluster) map[string]string {
	t.Helper()
	byOwner := make(map[string]string, len(tc.urls))
	ring := tc.srvs[0].cluster.ring
	for dt := 0; dt < 200 && len(byOwner) < len(tc.urls); dt++ {
		body := clusterBody(2, 1, 3, 60+float64(dt)*0.125)
		owner := ring.Owner(planKeyFor(t, body))
		if _, ok := byOwner[owner]; !ok {
			byOwner[owner] = body
		}
	}
	if len(byOwner) < len(tc.urls) {
		t.Fatalf("could not find keys for every replica: %v", byOwner)
	}
	return byOwner
}

// sumInvariant asserts the pinned per-node accounting identity:
// served_local + served_peer_fetch + served_forwarded equals the node's
// successful maximize responses.
func sumInvariant(t *testing.T, tc *testCluster) {
	t.Helper()
	for i := range tc.srvs {
		if tc.https[i] == nil {
			continue
		}
		st := getStats(t, tc.urls[i])
		if st.Cluster == nil {
			t.Fatalf("replica %d: stats carry no cluster block", i)
		}
		ep := st.Requests["maximize"]
		got := st.Cluster.ServedLocal + st.Cluster.ServedPeerFetch + st.Cluster.ServedForwarded
		want := ep.Count - ep.Errors
		if got != want {
			t.Fatalf("replica %d: served sum %d (local %d + peer %d + fwd %d) != 200-responses %d",
				i, got, st.Cluster.ServedLocal, st.Cluster.ServedPeerFetch, st.Cluster.ServedForwarded, want)
		}
	}
}

// A request whose key another replica owns is proxied there; the owner
// solves it once, both replicas cache it, and the counters classify
// every serve. This also pins the per-node sum invariant for the
// local/forwarded/peer serve classes.
func TestClusterForwardingAndServeSources(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	byOwner := bodiesByOwner(t, tc)

	ownerURL := tc.urls[1]
	body := byOwner[ownerURL]

	// Served via replica 0 → forwarded to replica 1.
	status, mr := postMaximize(t, tc.urls[0], body)
	if status != http.StatusOK {
		t.Fatalf("forwarded request: HTTP %d", status)
	}
	if mr.Source != "forwarded" {
		t.Fatalf("source %q, want forwarded", mr.Source)
	}
	if mr.Cached {
		t.Fatal("first solve reported cached")
	}
	// The owner answered it locally.
	ownerStats := getStats(t, ownerURL)
	if ownerStats.Cluster.ServedLocal != 1 {
		t.Fatalf("owner served_local = %d, want 1", ownerStats.Cluster.ServedLocal)
	}
	// Replica 0 now holds the bytes in its replicated store: a repeat is
	// a store hit for a key replica 1 owns — a peer fetch, not another
	// forward.
	status, mr2 := postMaximize(t, tc.urls[0], body)
	if status != http.StatusOK || !mr2.Cached || mr2.Source != "peer" {
		t.Fatalf("repeat after forward: HTTP %d cached=%v source=%q", status, mr2.Cached, mr2.Source)
	}
	if !bytes.Equal(mr.Plan, mr2.Plan) {
		t.Fatal("forwarded and cached plan bytes differ")
	}
	// And byte-identical to the owner's own serve.
	status, mr3 := postMaximize(t, ownerURL, body)
	if status != http.StatusOK || !bytes.Equal(mr.Plan, mr3.Plan) {
		t.Fatalf("owner's plan differs from the forwarded plan (HTTP %d)", status)
	}

	// Peer-fetch: solve a replica-0-owned key on replica 0, gossip it to
	// replica 2, then ask replica 2 — whose LRU is cold — for it.
	body0 := byOwner[tc.urls[0]]
	if status, _ := postMaximize(t, tc.urls[0], body0); status != http.StatusOK {
		t.Fatalf("owner solve: HTTP %d", status)
	}
	tc.syncAll(t)
	status, mr4 := postMaximize(t, tc.urls[2], body0)
	if status != http.StatusOK {
		t.Fatalf("peer-fetch request: HTTP %d", status)
	}
	if mr4.Source != "peer" || !mr4.Cached {
		t.Fatalf("store hit for a foreign key: source=%q cached=%v, want peer/true", mr4.Source, mr4.Cached)
	}

	sumInvariant(t, tc)
}

// In cluster mode every plan lives in exactly one cache: a complete plan
// only in the replicated store, a degraded one only in the process LRU,
// where it is served stale until a background refresh puts the complete
// plan in the store.
func TestClusterKeepsEachPlanInOneCache(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: &ClusterConfig{Self: "http://self.invalid"}})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	cached := func() (lru, store int) {
		st := srv.Stats()
		return st.Cache.Size, st.Cluster.StoreSize
	}

	status, mr := postMaximize(t, ts.URL, maximizeBody("AO"))
	if status != http.StatusOK || mr.Degraded {
		t.Fatalf("complete solve: HTTP %d degraded=%v", status, mr.Degraded)
	}
	if lru, store := cached(); lru != 0 || store != 1 {
		t.Fatalf("complete plan cached in LRU %d / store %d entries, want 0 / 1", lru, store)
	}
	status, hit := postMaximize(t, ts.URL, maximizeBody("AO"))
	if status != http.StatusOK || !hit.Cached || hit.Stale || hit.Source != "local" || !bytes.Equal(hit.Plan, mr.Plan) {
		t.Fatalf("repeat: HTTP %d cached=%v stale=%v source=%q", status, hit.Cached, hit.Stale, hit.Source)
	}

	// The 1 ms deadline truncates the solve, as in
	// TestServeTimeoutCancelsSearch; three paper levels keep the complete
	// refresh solve short (the default 15 levels take seconds).
	body := `{"platform":{"rows":3,"cols":3,"paper_levels":3},"tmax_c":65,"method":"PCO","timeout_s":0.001}`
	status, mr = postMaximize(t, ts.URL, body)
	if status != http.StatusOK || !mr.Degraded {
		t.Fatalf("deadline-truncated solve: HTTP %d degraded=%v", status, mr.Degraded)
	}
	if lru, store := cached(); lru != 1 || store != 1 {
		t.Fatalf("degraded plan cached in LRU %d / store %d entries, want 1 / 1", lru, store)
	}
	status, hit = postMaximize(t, ts.URL, body)
	if status != http.StatusOK || !hit.Cached || !hit.Stale || !hit.Degraded {
		t.Fatalf("degraded hit: HTTP %d cached=%v stale=%v degraded=%v", status, hit.Cached, hit.Stale, hit.Degraded)
	}
	srv.waitIdle()
	status, hit = postMaximize(t, ts.URL, body)
	if status != http.StatusOK || !hit.Cached || hit.Stale || hit.Degraded {
		t.Fatalf("hit after the refresh: HTTP %d cached=%v stale=%v degraded=%v", status, hit.Cached, hit.Stale, hit.Degraded)
	}
	if _, store := cached(); store != 2 {
		t.Fatalf("refreshed plan: store %d entries, want 2", store)
	}
}

// A hop-marked request must be answered by the receiver even when the
// ring says another replica owns the key — forwarding never loops.
func TestClusterForwardNeverLoops(t *testing.T) {
	tc := startTestCluster(t, 2, 0, nil)
	byOwner := bodiesByOwner(t, tc)
	body := byOwner[tc.urls[1]] // owned by replica 1

	req, err := http.NewRequest(http.MethodPost, tc.urls[0]+"/v1/maximize", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(clusterHopHeader, "test") // pretend this already hopped
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hop-marked request: HTTP %d", resp.StatusCode)
	}
	var mr MaximizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Source != "local" {
		t.Fatalf("hop-marked request source %q, want local (owner-solve on the receiver)", mr.Source)
	}
	if got := tc.srvs[0].cluster.servedForwarded.Load(); got != 0 {
		t.Fatalf("replica 0 forwarded %d hop-marked requests", got)
	}
}

func TestClusterStatusAndFleetEndpoint(t *testing.T) {
	tc := startTestCluster(t, 3, 0, nil)
	byOwner := bodiesByOwner(t, tc)
	for owner, body := range byOwner {
		if status, _ := postMaximize(t, owner, body); status != http.StatusOK {
			t.Fatalf("solve on %s: HTTP %d", owner, status)
		}
	}
	resp, err := http.Get(tc.urls[0] + "/v1/cluster?fleet=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != tc.urls[0] || len(st.Nodes) != 3 || len(st.Peers) != 2 || st.VirtualNodes != 64 {
		t.Fatalf("status topology: self=%q nodes=%v peers=%v virtual_nodes=%d", st.Self, st.Nodes, st.Peers, st.VirtualNodes)
	}
	if st.Fleet == nil {
		t.Fatal("?fleet=1 returned no fleet block")
	}
	if st.Fleet.Reachable != 3 || len(st.Fleet.Unreachable) != 0 {
		t.Fatalf("fleet reachability: %+v", st.Fleet)
	}
	if st.Fleet.ServedLocal != 3 {
		t.Fatalf("fleet served_local = %d, want 3 (one owner-solve per replica)", st.Fleet.ServedLocal)
	}
	if len(st.Fleet.StoreSizes) != 3 {
		t.Fatalf("fleet store sizes: %v", st.Fleet.StoreSizes)
	}
}

// postSync posts one sync message and decodes a 200 reply.
func postSync(t *testing.T, url, body string) (int, cluster.SyncResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/cluster/sync", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s/v1/cluster/sync: %v", url, err)
	}
	defer resp.Body.Close()
	var sr cluster.SyncResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sr
}

// The sync endpoint is the store's export and import: a pull with an
// empty key list returns every entry, key-sorted, and a push of those
// entries loads a fresh replica, which then serves them cached and
// byte-identical. A malformed message is a 400.
func TestClusterSyncExportImport(t *testing.T) {
	tc := startTestCluster(t, 2, 0, nil)
	refPlans := make(map[string][]byte)
	for owner, body := range bodiesByOwner(t, tc) {
		status, mr := postMaximize(t, owner, body)
		if status != http.StatusOK {
			t.Fatalf("solve on %s: HTTP %d", owner, status)
		}
		refPlans[body] = mr.Plan
	}
	tc.syncAll(t)

	status, export := postSync(t, tc.urls[0], `{"keys":[]}`)
	want := tc.srvs[0].cluster.store.Entries()
	if status != http.StatusOK || len(export.Entries) != len(want) || len(want) < len(refPlans) {
		t.Fatalf("export: HTTP %d, %d entries, want all %d", status, len(export.Entries), len(want))
	}
	for i, e := range export.Entries {
		if e.Key != want[i].Key || !bytes.Equal(e.Plan, want[i].Plan) || (i > 0 && e.Key <= export.Entries[i-1].Key) {
			t.Fatalf("export entry %d differs from the key-sorted store", i)
		}
	}

	fresh := NewServer(ServerConfig{Cluster: &ClusterConfig{Self: "http://fresh.invalid"}})
	ts := httptest.NewServer(fresh)
	t.Cleanup(func() {
		ts.Close()
		_ = fresh.Shutdown(context.Background())
	})
	push, err := json.Marshal(cluster.SyncRequest{Entries: export.Entries})
	if err != nil {
		t.Fatal(err)
	}
	if status, imported := postSync(t, ts.URL, string(push)); status != http.StatusOK || imported.Applied != len(want) {
		t.Fatalf("import: HTTP %d, applied %d of %d", status, imported.Applied, len(want))
	}
	for body, plan := range refPlans {
		status, mr := postMaximize(t, ts.URL, body)
		if status != http.StatusOK || !mr.Cached || !bytes.Equal(mr.Plan, plan) {
			t.Fatalf("imported key: HTTP %d cached=%v, byte-identical=%v", status, mr.Cached, bytes.Equal(mr.Plan, plan))
		}
	}
	if status, _ := postSync(t, ts.URL, `{"keys":[],"version":1}`); status != http.StatusBadRequest {
		t.Fatalf("malformed sync: HTTP %d, want 400", status)
	}
}

// Single-process servers must be byte-stable against previous releases:
// no source field, no cluster stats block, and cluster endpoints 404.
func TestClusterDisabledIsByteStable(t *testing.T) {
	tc := startTestCluster(t, 1, 0, nil) // cluster of one: still "enabled"
	_ = tc
	srv := NewServer(ServerConfig{})
	hs := &http.Server{Handler: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { _ = hs.Close() })
	url := "http://" + ln.Addr().String()

	status, mr := postMaximize(t, url, clusterBody(2, 1, 3, 65))
	if status != http.StatusOK {
		t.Fatalf("HTTP %d", status)
	}
	if mr.Source != "" {
		t.Fatalf("single-process response carries source %q", mr.Source)
	}
	var raw map[string]any
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["cluster"]; ok {
		t.Fatal("single-process stats carry a cluster block")
	}
	cr, err := http.Get(url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/cluster on a single process: HTTP %d, want 404", cr.StatusCode)
	}
}

// A cluster config without Self is a topology bug: fail fast.
func TestClusterConfigRequiresSelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer accepted a cluster config without Self")
		}
	}()
	NewServer(ServerConfig{Cluster: &ClusterConfig{Peers: []string{"http://a"}}})
}
