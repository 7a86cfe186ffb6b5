package thermosc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thermosc/internal/cluster"
)

// This file is the fleet layer of the planning service: consistent-hash
// routing of canonical request keys across replicas, a replicated plan
// store, a forwarding proxy so any replica answers any key,
// gossip-driven anti-entropy between peers, and the cluster
// status/sync/drain endpoints. See docs/CLUSTER.md.
//
// Serving layers for a /v1/maximize key, in order:
//
//  1. plan cache       — the replicated store for complete plans (source
//     "local" for owned keys, "peer" for keys another replica owns), then
//     the process LRU for degraded plans (source "local")
//  2. forwarding proxy — key owned elsewhere: proxy the request to the
//     owner (source "forwarded")
//  3. local solve      — owned keys, and the re-route fallback when the
//     owner is unreachable (source "local")
//
// Every plan lives in exactly one cache. Only COMPLETE plans enter the
// replicated store: a complete plan is a deterministic function of its
// canonical key, so every replica stores byte-identical plans and
// cross-replica identity is a hard invariant the soak test asserts.
// Degraded plans are deadline-dependent and stay in the process LRU of
// the replica that produced them.

// clusterHopHeader marks a request already forwarded once; the receiver
// must answer it itself (owner-solve), never re-forward — a two-node
// disagreement about ring membership must degrade to an extra solve,
// not a proxy loop.
const clusterHopHeader = "X-Thermosc-Cluster-Hop"

// forwardTimeout caps one proxied request to the owner replica (the
// proxied request also inherits the client's own deadline via context),
// the sync round that re-admits a peer, and a drain's sync rounds.
const forwardTimeout = 30 * time.Second

// probeSeed pins the per-tick health-probe ordering.
const probeSeed = 1

// Serve-source labels for the cluster counters and the response's
// `source` field.
const (
	serveSourceLocal     = "local"
	serveSourcePeer      = "peer"
	serveSourceForwarded = "forwarded"
)

// ClusterConfig joins a Server to a replica fleet. Zero value (or a nil
// pointer in ServerConfig) means single-process serving, byte-identical
// to previous releases.
type ClusterConfig struct {
	// Self is this replica's advertised base URL (scheme://host:port); it
	// is this node's name on the ring. Required — a config with peers but
	// no self is rejected.
	Self string
	// Peers are the other replicas' base URLs. The ring is the
	// deduplicated union of Self and Peers, so every replica derives the
	// same membership from its own flags.
	Peers []string
	// SyncInterval is the anti-entropy gossip period; each tick syncs
	// with one peer round-robin. 0 disables the background loop (tests
	// drive rounds explicitly; a 3-node fleet converges within two
	// intervals of any write).
	SyncInterval time.Duration
	// StoreCap bounds the replicated plan store (default
	// cluster.DefaultStoreCap entries, FIFO eviction).
	StoreCap int
	// StorePath, when set, gives the plan store a crash-safe append-only
	// log there (see cluster.Store); empty keeps the store in memory
	// only. docs/CLUSTER.md has the trade-off.
	StorePath string

	// ProbeInterval is the failure detector's dedicated /healthz probe
	// period. 0 (the default) disables the probe loop — the detector
	// still runs, fed by gossip and forward outcomes, so explicit-sync
	// tests see exactly the observations they inject. thermosc-serve
	// defaults the flag to 1s.
	ProbeInterval time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	c.Self = strings.TrimRight(c.Self, "/")
	peers := make([]string, 0, len(c.Peers))
	for _, p := range c.Peers {
		p = strings.TrimRight(p, "/")
		if p != "" && p != c.Self {
			peers = append(peers, p)
		}
	}
	c.Peers = peers
	if c.StoreCap <= 0 {
		c.StoreCap = cluster.DefaultStoreCap
	}
	return c
}

// serveCluster is the Server's fleet state.
type serveCluster struct {
	cfg    ClusterConfig
	ring   *cluster.Ring
	store  *cluster.Store
	client *http.Client
	// health is the failure detector (health.go): every peer contact —
	// dedicated probe, gossip round, forward transport failure — feeds
	// it, and healthyOwner consults it to route around down peers.
	health *cluster.Detector

	// Serve-source counters. The per-node invariant, pinned by tests:
	// servedLocal + servedPeer + servedForwarded == successful (200)
	// /v1/maximize responses this process produced.
	servedLocal     atomic.Uint64
	servedPeer      atomic.Uint64
	servedForwarded atomic.Uint64
	forwardFails    atomic.Uint64

	syncRounds   atomic.Uint64
	syncFails    atomic.Uint64
	entriesSent  atomic.Uint64
	entriesRecvd atomic.Uint64

	probesSent atomic.Uint64
	probeFails atomic.Uint64
	probeTicks atomic.Uint64

	// draining, when set, takes this replica out of the healthy ring
	// view (its own keys route to successors), reports "draining" on
	// /healthz so balancers and peer probes stop sending traffic, and
	// was followed by a sync round with every healthy peer. See
	// handleClusterDrain.
	draining atomic.Bool

	// rejectSync, when set, answers every inbound sync with 503 — the
	// tests' partition lever (POST /v1/cluster/sync is the only write
	// path between replicas). No endpoint or flag sets it.
	rejectSync atomic.Bool

	mu       sync.Mutex
	peerIdx  int
	peerSeen map[string]peerSyncState

	stopOnce sync.Once
	stop     chan struct{}
	loops    sync.WaitGroup
}

type peerSyncState struct {
	at    time.Time
	err   string
	fails uint64
}

// newClusterStore builds the plan store, with a log when StorePath is
// set.
func newClusterStore(cfg ClusterConfig) (*cluster.Store, error) {
	if cfg.StorePath == "" {
		return cluster.NewMemStore(cfg.StoreCap), nil
	}
	return cluster.NewFileStore(cfg.StorePath, cfg.StoreCap)
}

// newServeCluster validates and builds the fleet state; a nil return
// (with error) leaves the server single-process.
func newServeCluster(cfg ClusterConfig) (*serveCluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	store, err := newClusterStore(cfg)
	if err != nil {
		return nil, err
	}
	c := &serveCluster{
		cfg:   cfg,
		ring:  cluster.NewRing(append([]string{cfg.Self}, cfg.Peers...), cluster.DefaultVirtualNodes),
		store: store,
		client: &http.Client{
			// Forwarding and gossip reuse connections to a handful of
			// peers; the transport's per-host idle pool must not throttle a
			// soak-scale request stream into TIME_WAIT churn. The dial and
			// TLS-handshake timeouts bound how long a connection ATTEMPT to
			// a dead peer can hold a goroutine — without them, a
			// blackholed peer accumulates dialing connections for the full
			// forward timeout each. No ResponseHeaderTimeout: a forwarded
			// cold solve legitimately takes seconds, and forwardTimeout
			// already caps the whole exchange.
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 15 * time.Second}).DialContext,
				TLSHandshakeTimeout: 2 * time.Second,
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		health:   cluster.NewDetector(cfg.Peers),
		peerSeen: make(map[string]peerSyncState, len(cfg.Peers)),
		stop:     make(chan struct{}),
	}
	return c, nil
}

// owns reports whether this replica is the ring owner of a canonical
// plan key.
func (c *serveCluster) owns(planKey string) bool { return c.ring.Owner(planKey) == c.cfg.Self }

// downForRouting is the live-view predicate: a node is routed around
// when the detector holds it suspect/dead, or when it is this replica
// itself and draining (its keys belong to successors now).
func (c *serveCluster) downForRouting(node string) bool {
	if node == c.cfg.Self {
		return c.draining.Load()
	}
	return c.health.Down(node)
}

// healthyOwner returns the replica that should answer planKey in the
// LIVE view of the ring: the static owner unless the detector holds it
// down, in which case ownership falls clockwise to the next healthy
// successor — deterministically identical to removing the down nodes
// from the ring (see Ring.OwnerSkipping). With every node down the key
// is served locally: degrading to an extra solve is always safe.
func (c *serveCluster) healthyOwner(planKey string) string {
	o := c.ring.OwnerSkipping(planKey, c.downForRouting)
	if o == "" {
		return c.cfg.Self
	}
	return o
}

// startLoops launches the background anti-entropy and health-probe
// loops (each a no-op without peers or with its interval unset).
func (c *serveCluster) startLoops() {
	if len(c.cfg.Peers) == 0 {
		return
	}
	if c.cfg.SyncInterval > 0 {
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			t := time.NewTicker(c.cfg.SyncInterval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					ctx, cancel := context.WithTimeout(context.Background(), c.cfg.SyncInterval*4+time.Second)
					c.syncTick(ctx)
					cancel()
				}
			}
		}()
	}
	if c.cfg.ProbeInterval > 0 {
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			t := time.NewTicker(c.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.probeTick(context.Background())
				}
			}
		}()
	}
}

// syncTick runs one gossip tick: try peers in round-robin order until a
// round succeeds, visiting each peer at most once. The cursor advances
// past failing peers, so a persistently dead peer costs each tick one
// failed attempt but can never starve the healthy peers behind it in
// rotation (the starvation bug this replaces: one failing peer consumed
// every tick it rotated onto, halving effective sync frequency — and a
// single-peer view of a flapping fleet could stall entirely).
func (c *serveCluster) syncTick(ctx context.Context) {
	for range c.cfg.Peers {
		if _, err := c.syncNow(ctx, c.nextPeer()); err == nil {
			return
		}
		if ctx.Err() != nil {
			return // tick budget exhausted; later peers get the next tick
		}
	}
}

// probeTick probes every peer's /healthz once, in a seed-pinned
// per-tick permutation (rand order prevents lockstep probe bursts
// across a fleet started together; the seed keeps a failing run
// replayable).
func (c *serveCluster) probeTick(ctx context.Context) {
	tick := c.probeTicks.Add(1)
	order := rand.New(rand.NewSource(probeSeed + int64(tick))).Perm(len(c.cfg.Peers))
	for _, i := range order {
		c.probeOne(ctx, c.cfg.Peers[i])
	}
}

// probeOne checks one peer's /healthz and feeds the detector. Any
// non-200 — including a draining peer's 503 — counts as a failure, so
// routing moves off a replica as soon as it signals unreadiness, not
// only when its socket dies. The probe that re-admits a peer runs one
// sync round with it, which hands it every write it missed — also those
// made before the detector marked it down. (A gossip round that
// re-admits a peer has already converged the pair.)
func (c *serveCluster) probeOne(ctx context.Context, peer string) {
	timeout := c.cfg.ProbeInterval
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c.probesSent.Add(1)
	start := time.Now()
	ok := false
	if hreq, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/healthz", nil); err == nil {
		if hresp, err := c.client.Do(hreq); err == nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(hresp.Body, 4<<10))
			hresp.Body.Close()
			ok = hresp.StatusCode == http.StatusOK
		}
	}
	if !ok {
		c.probeFails.Add(1)
	}
	if state, transitioned := c.health.Observe(peer, ok, time.Since(start)); transitioned && state == cluster.StateAlive {
		sctx, scancel := context.WithTimeout(ctx, forwardTimeout)
		defer scancel()
		_, _ = c.syncNow(sctx, peer) // syncNow records a failed round itself
	}
}

func (c *serveCluster) stopLoops() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.loops.Wait()
}

func (c *serveCluster) nextPeer() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.cfg.Peers[c.peerIdx%len(c.cfg.Peers)]
	c.peerIdx++
	return p
}

// syncNow runs one pull-push anti-entropy round against peer: send our
// keys, store what the peer has that we lack, push what it asked for.
// It returns how many entries it pushed. The round's outcome doubles as
// a failure-detector observation — every gossip tick is a free health
// probe.
func (c *serveCluster) syncNow(ctx context.Context, peer string) (int, error) {
	c.syncRounds.Add(1)
	roundStart := time.Now()
	pushed, err := c.syncRound(ctx, peer)
	c.health.Observe(peer, err == nil, time.Since(roundStart))
	c.mu.Lock()
	st := peerSyncState{at: time.Now(), fails: c.peerSeen[peer].fails}
	if err != nil {
		st.err = err.Error()
		st.fails++
	}
	c.peerSeen[peer] = st
	c.mu.Unlock()
	if err != nil {
		c.syncFails.Add(1)
	}
	return pushed, err
}

func (c *serveCluster) syncRound(ctx context.Context, peer string) (int, error) {
	resp, err := c.postSync(ctx, peer, cluster.SyncRequest{Keys: c.store.Keys()})
	if err != nil {
		return 0, err
	}
	for _, e := range resp.Entries {
		if c.store.Put(e) {
			c.entriesRecvd.Add(1)
		}
	}
	push := cluster.MissingEntries(c.store, resp.Want)
	if len(push) == 0 {
		return 0, nil
	}
	if _, err := c.postSync(ctx, peer, cluster.SyncRequest{Entries: push}); err != nil {
		return 0, err
	}
	c.entriesSent.Add(uint64(len(push)))
	return len(push), nil
}

// maxSyncBodyBytes bounds one gossip message on the wire: the entry
// payloads dominate, so the cap mirrors the store's worst case rather
// than the 1 MiB request-body cap.
const maxSyncBodyBytes = 64 << 20

func (c *serveCluster) postSync(ctx context.Context, peer string, req cluster.SyncRequest) (cluster.SyncResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return cluster.SyncResponse{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/cluster/sync", bytes.NewReader(body))
	if err != nil {
		return cluster.SyncResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.client.Do(hreq)
	if err != nil {
		return cluster.SyncResponse{}, err
	}
	defer hresp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(hresp.Body, maxSyncBodyBytes))
	if err != nil {
		return cluster.SyncResponse{}, err
	}
	if hresp.StatusCode != http.StatusOK {
		return cluster.SyncResponse{}, fmt.Errorf("cluster: peer %s sync: HTTP %d", peer, hresp.StatusCode)
	}
	var resp cluster.SyncResponse
	if err := json.Unmarshal(rb, &resp); err != nil {
		return cluster.SyncResponse{}, fmt.Errorf("cluster: peer %s sync reply: %w", peer, err)
	}
	return resp, nil
}

// served increments one serve-source counter (helper for the handler).
func (c *serveCluster) served(source string) {
	switch source {
	case serveSourcePeer:
		c.servedPeer.Add(1)
	case serveSourceForwarded:
		c.servedForwarded.Add(1)
	default:
		c.servedLocal.Add(1)
	}
}

// statsSnapshot renders the cluster block of /v1/stats.
func (c *serveCluster) statsSnapshot() *ClusterStats {
	alive, suspect, dead := c.health.Counts()
	return &ClusterStats{
		Self:            c.cfg.Self,
		Nodes:           c.ring.Nodes(),
		ServedLocal:     c.servedLocal.Load(),
		ServedPeerFetch: c.servedPeer.Load(),
		ServedForwarded: c.servedForwarded.Load(),
		ForwardFailures: c.forwardFails.Load(),
		SyncRounds:      c.syncRounds.Load(),
		SyncFailures:    c.syncFails.Load(),
		EntriesSent:     c.entriesSent.Load(),
		EntriesReceived: c.entriesRecvd.Load(),
		StoreSize:       c.store.Len(),
		StoreCapacity:   c.store.Cap(),
		PeersAlive:      alive,
		PeersSuspect:    suspect,
		PeersDead:       dead,
		ProbesSent:      c.probesSent.Load(),
		ProbeFailures:   c.probeFails.Load(),
		Draining:        c.draining.Load(),
	}
}

// ---- Server integration ----------------------------------------------

// sourceLabel is the response's `source` field value: set only in
// cluster mode so single-process responses stay byte-stable against
// earlier releases.
func (s *Server) sourceLabel(source string) string {
	if s.cluster == nil {
		return ""
	}
	return source
}

// clusterServed counts one successful maximize serve against its
// source (no-op single-process).
func (s *Server) clusterServed(source string) {
	if s.cluster != nil {
		s.cluster.served(source)
	}
}

// lookupPlan finds planKey in the plan cache that can hold it (layer 1):
// in cluster mode the replicated store first, then the process LRU;
// single-process the LRU alone. A store hit for a key another replica
// owns is labelled a peer fetch: its bytes arrived via gossip, a sync
// push, or a forward to the owner.
func (s *Server) lookupPlan(planKey string) (cachedPlan, string, bool) {
	if s.cluster != nil {
		if ce, ok := s.cluster.store.Get(planKey); ok {
			src := serveSourceLocal
			if !s.cluster.owns(planKey) {
				src = serveSourcePeer
			}
			return cachedPlan{bytes: ce.Plan}, src, true
		}
	}
	ent, ok := s.plans.Get(planKey)
	return ent, serveSourceLocal, ok
}

// storePlan keeps a plan in exactly one cache. Single-process, and for
// degraded plans (which never enter the store; see the file comment),
// that is the process LRU. In cluster mode a COMPLETE plan goes only to
// the replicated store; a down owner receives it in the sync round that
// re-admits it (probeOne).
func (s *Server) storePlan(planKey string, ent cachedPlan) {
	if s.cluster == nil || ent.degraded {
		s.plans.Put(planKey, ent)
		return
	}
	s.cluster.store.Put(cluster.Entry{Key: planKey, Plan: ent.bytes})
}

// forwardMaximize proxies a request whose key another replica owns.
// It reports whether the request was fully answered; a transport
// failure returns false and the caller re-routes to a local solve (the
// ring's failure semantics: with the owner down, the remaining replicas
// keep serving every key). The owner's HTTP errors (4xx/429/5xx) are
// relayed verbatim — they are deterministic or backpressure answers,
// not reachability failures.
func (s *Server) forwardMaximize(w http.ResponseWriter, r *http.Request, body []byte, owner, planKey string, start time.Time, failed *bool) bool {
	ctx, cancel := context.WithTimeout(r.Context(), forwardTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/maximize", bytes.NewReader(body))
	if err != nil {
		s.cluster.forwardFails.Add(1)
		return false
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(clusterHopHeader, s.cluster.cfg.Self)
	hresp, err := s.cluster.client.Do(hreq)
	if err != nil {
		// A transport failure is also a detector observation: the next
		// request for this owner's keys re-routes via healthyOwner once
		// the failure streak crosses the suspect threshold, instead of
		// rediscovering the dead peer on every forward. HTTP errors below
		// are NOT observations — they are real answers from a live peer.
		s.cluster.forwardFails.Add(1)
		s.cluster.health.Observe(owner, false, 0)
		return false
	}
	defer hresp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(hresp.Body, maxSyncBodyBytes))
	if err != nil {
		s.cluster.forwardFails.Add(1)
		s.cluster.health.Observe(owner, false, 0)
		return false
	}
	if hresp.StatusCode != http.StatusOK {
		if ra := hresp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(hresp.StatusCode)
		_, _ = w.Write(rb)
		return true
	}
	var mr MaximizeResponse
	if err := json.Unmarshal(rb, &mr); err != nil || len(mr.Plan) == 0 {
		s.cluster.forwardFails.Add(1)
		return false
	}
	if !mr.Degraded {
		s.storePlan(planKey, cachedPlan{bytes: mr.Plan})
	}
	s.clusterServed(serveSourceForwarded)
	*failed = false
	writeJSON(w, http.StatusOK, MaximizeResponse{
		Plan:           mr.Plan,
		Cached:         mr.Cached,
		Shared:         mr.Shared,
		Degraded:       mr.Degraded,
		DegradedReason: mr.DegradedReason,
		Stale:          mr.Stale,
		Key:            mr.Key,
		Source:         serveSourceForwarded,
		ElapsedS:       time.Since(start).Seconds(),
	})
	return true
}

// ---- HTTP endpoints ---------------------------------------------------

// ClusterStatus is the JSON schema of GET /v1/cluster.
type ClusterStatus struct {
	Self         string       `json:"self"`
	Nodes        []string     `json:"nodes"`
	VirtualNodes int          `json:"virtual_nodes"`
	Draining     bool         `json:"draining,omitempty"`
	Peers        []PeerStatus `json:"peers"`
	Counters     ClusterStats `json:"counters"`
	// Fleet aggregates the cluster counters across every reachable
	// replica (set only with ?fleet=1).
	Fleet *FleetStats `json:"fleet,omitempty"`
	// Timeline is the failure detector's bounded health-transition log
	// (set only with ?timeline=1) — the artifact the churn CI job
	// uploads.
	Timeline []cluster.HealthTransition `json:"timeline,omitempty"`
}

// PeerStatus reports the last anti-entropy contact with one peer plus
// its failure-detector view.
type PeerStatus struct {
	URL string `json:"url"`
	// LastSyncUnixS is the wall-clock time of the last attempted round
	// (0 = never attempted).
	LastSyncUnixS float64 `json:"last_sync_unix_s,omitempty"`
	// LastError is the last round's failure ("" = the last round
	// succeeded).
	LastError string `json:"last_error,omitempty"`
	// SyncFailures counts this peer's failed rounds since startup.
	SyncFailures uint64 `json:"sync_failures,omitempty"`

	// Health is the detector's state for this peer: alive / suspect /
	// dead. Recovering marks a dead peer inside its re-admission
	// probation window.
	Health     string `json:"health"`
	Recovering bool   `json:"recovering,omitempty"`
	// ConsecutiveFailures is the current failed-contact streak feeding
	// the state machine; HealthTransitions counts state changes since
	// startup.
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	HealthTransitions   uint64 `json:"health_transitions"`
	// LastProbeUnixS / LastProbeLatencyS describe the most recent
	// health observation of any kind (probe, gossip, forward failure).
	LastProbeUnixS    float64 `json:"last_probe_unix_s,omitempty"`
	LastProbeLatencyS float64 `json:"last_probe_latency_s,omitempty"`
}

// FleetStats is the cluster-aggregated view: per-node serve-source
// counters summed across every replica that answered /v1/stats. Note
// one client request answered by forwarding is counted twice fleet-wide
// — once as "forwarded" at the proxy and once as "local" at the owner —
// so ServedLocal+ServedPeerFetch equals client-visible serves and
// ServedForwarded measures internal proxy traffic.
type FleetStats struct {
	Reachable       int            `json:"reachable"`
	Unreachable     []string       `json:"unreachable,omitempty"`
	ServedLocal     uint64         `json:"served_local"`
	ServedPeerFetch uint64         `json:"served_peer_fetch"`
	ServedForwarded uint64         `json:"served_forwarded"`
	ForwardFailures uint64         `json:"forward_failures"`
	SyncRounds      uint64         `json:"sync_rounds"`
	SyncFailures    uint64         `json:"sync_failures"`
	StoreSizes      map[string]int `json:"store_sizes"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "clustering is not enabled", Code: "bad_request"})
		return
	}
	st := ClusterStatus{
		Self:         c.cfg.Self,
		Nodes:        c.ring.Nodes(),
		VirtualNodes: cluster.DefaultVirtualNodes,
		Draining:     c.draining.Load(),
		Counters:     *c.statsSnapshot(),
	}
	c.mu.Lock()
	for _, p := range c.cfg.Peers {
		ps := PeerStatus{URL: p}
		if seen, ok := c.peerSeen[p]; ok {
			ps.LastSyncUnixS = float64(seen.at.UnixNano()) / 1e9
			ps.LastError = seen.err
			ps.SyncFailures = seen.fails
		}
		st.Peers = append(st.Peers, ps)
	}
	c.mu.Unlock()
	for i := range st.Peers {
		ph := c.health.Health(st.Peers[i].URL)
		st.Peers[i].Health = ph.State
		st.Peers[i].Recovering = ph.Recovering
		st.Peers[i].ConsecutiveFailures = ph.ConsecFails
		st.Peers[i].HealthTransitions = ph.Transitions
		st.Peers[i].LastProbeUnixS = ph.LastProbeUnixS
		st.Peers[i].LastProbeLatencyS = ph.LastProbeLatencyS
	}
	if r.URL.Query().Get("fleet") != "" {
		st.Fleet = s.gatherFleet(r.Context())
	}
	if r.URL.Query().Get("timeline") != "" {
		st.Timeline = c.health.Timeline()
	}
	writeJSON(w, http.StatusOK, st)
}

// gatherFleet polls every peer's /v1/stats CONCURRENTLY — each poll
// under its own fetchPeerStats deadline — and sums the cluster counters
// with this node's own. The fan-out bounds the whole status call by the
// slowest single peer rather than the sum: one hung replica used to
// stall ?fleet=1 for peers × timeout.
func (s *Server) gatherFleet(ctx context.Context) *FleetStats {
	c := s.cluster
	fleet := &FleetStats{Reachable: 1, StoreSizes: map[string]int{c.cfg.Self: c.store.Len()}}
	add := func(cs *ClusterStats) {
		fleet.ServedLocal += cs.ServedLocal
		fleet.ServedPeerFetch += cs.ServedPeerFetch
		fleet.ServedForwarded += cs.ServedForwarded
		fleet.ForwardFailures += cs.ForwardFailures
		fleet.SyncRounds += cs.SyncRounds
		fleet.SyncFailures += cs.SyncFailures
	}
	add(c.statsSnapshot())
	type peerResult struct {
		cs   *ClusterStats
		size int
		err  error
	}
	results := make([]peerResult, len(c.cfg.Peers))
	var wg sync.WaitGroup
	for i, p := range c.cfg.Peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			cs, size, err := c.fetchPeerStats(ctx, peer)
			results[i] = peerResult{cs: cs, size: size, err: err}
		}(i, p)
	}
	wg.Wait()
	for i, p := range c.cfg.Peers {
		if results[i].err != nil {
			fleet.Unreachable = append(fleet.Unreachable, p)
			continue
		}
		fleet.Reachable++
		fleet.StoreSizes[p] = results[i].size
		add(results[i].cs)
	}
	return fleet
}

// fleetStatsTimeout bounds one peer's ?fleet=1 stats poll; with the
// concurrent fan-out it also bounds the whole aggregation.
const fleetStatsTimeout = 3 * time.Second

func (c *serveCluster) fetchPeerStats(ctx context.Context, peer string) (*ClusterStats, int, error) {
	ctx, cancel := context.WithTimeout(ctx, fleetStatsTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/stats", nil)
	if err != nil {
		return nil, 0, err
	}
	hresp, err := c.client.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer hresp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(hresp.Body, maxBodyBytes))
	if err != nil || hresp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("cluster: peer %s stats: HTTP %d (%v)", peer, hresp.StatusCode, err)
	}
	var st ServerStats
	if err := json.Unmarshal(rb, &st); err != nil || st.Cluster == nil {
		return nil, 0, fmt.Errorf("cluster: peer %s stats: %v", peer, err)
	}
	return st.Cluster, st.Cluster.StoreSize, nil
}

func (s *Server) handleClusterSync(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "clustering is not enabled", Code: "bad_request"})
		return
	}
	if c.rejectSync.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "sync rejected: replica is partitioned", Code: "partitioned"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSyncBodyBytes))
	if err != nil {
		writeError(w, badRequestf("reading sync body: %v", err))
		return
	}
	req, err := cluster.DecodeSyncRequest(body)
	if err != nil {
		writeError(w, badRequestf("%v", err))
		return
	}
	resp := cluster.HandleSync(c.store, req)
	c.entriesRecvd.Add(uint64(resp.Applied))
	c.entriesSent.Add(uint64(len(resp.Entries)))
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterDrain is POST /v1/cluster/drain: flip this replica into
// the draining state (?off=1 rejoins). Draining (1) reports 503 on
// /healthz so balancers and peer probes take the replica out of
// rotation, (2) removes it from its own healthy ring view so its owned
// keys route to their successors, and (3) runs one sync round with
// every peer the detector holds up, so each holds every entry this
// replica has — the successors of its owned keys included — before a
// restart. The reply counts the rounds run (targets), the entries they
// pushed, and the failed rounds (push_failures). In-flight and straggler
// requests are still answered — refusing them would turn a graceful
// drain into client-visible errors.
func (s *Server) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "clustering is not enabled", Code: "bad_request"})
		return
	}
	if r.URL.Query().Get("off") != "" {
		c.draining.Store(false)
		writeJSON(w, http.StatusOK, map[string]any{"draining": false})
		return
	}
	c.draining.Store(true)
	ctx, cancel := context.WithTimeout(r.Context(), forwardTimeout)
	defer cancel()
	pushed, targets, failures := 0, 0, 0
	for _, p := range c.cfg.Peers {
		if c.health.Down(p) {
			continue
		}
		targets++
		n, err := c.syncNow(ctx, p)
		pushed += n
		if err != nil {
			failures++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"draining":      true,
		"pushed":        pushed,
		"targets":       targets,
		"push_failures": failures,
	})
}

// CloseIdlePeerConnections drops the cluster HTTP client's pooled idle
// connections. Operational hook for in-process fleets (thermosc-load
// -cluster churn mode): after a replica restarts on the same address,
// stale pooled connections to its previous incarnation would each cost
// one failed request before the pool heals. No-op single-process.
func (s *Server) CloseIdlePeerConnections() {
	if s.cluster != nil {
		s.cluster.client.CloseIdleConnections()
	}
}
