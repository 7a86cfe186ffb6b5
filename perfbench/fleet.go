package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"thermosc"
)

// fleet is the set of servers under test: one process-local
// thermosc.Server per replica, each behind its own loopback listener.
// The servers use the shipped defaults (no batching, no audits); a
// multi-replica fleet is wired the way thermosc-load -cluster N wires it.
type fleet struct {
	urls  []string
	srvs  []*thermosc.Server
	https []*http.Server
	wg    sync.WaitGroup
}

// Gossip and probe periods of thermosc-load's in-process cluster.
const (
	fleetSyncInterval  = 250 * time.Millisecond
	fleetProbeInterval = 250 * time.Millisecond
)

// wrapFunc wraps one replica's handler (the traced run's span recorder).
type wrapFunc func(replica int, h http.Handler) http.Handler

// startFleet boots n replicas, each handler wrapped by wrap when non-nil.
func startFleet(n int, wrap wrapFunc) (*fleet, error) {
	f := &fleet{urls: make([]string, n), srvs: make([]*thermosc.Server, n), https: make([]*http.Server, n)}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listening: %w", err)
		}
		lns[i] = ln
		f.urls[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		cfg := thermosc.ServerConfig{}
		if n > 1 {
			peers := make([]string, 0, n-1)
			for j, u := range f.urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			cfg.Cluster = &thermosc.ClusterConfig{
				Self:          f.urls[i],
				Peers:         peers,
				SyncInterval:  fleetSyncInterval,
				ProbeInterval: fleetProbeInterval,
			}
		}
		srv := thermosc.NewServer(cfg)
		var h http.Handler = srv
		if wrap != nil {
			h = wrap(i, srv)
		}
		hs := &http.Server{Handler: h}
		f.srvs[i], f.https[i] = srv, hs
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed on stop
		}()
	}
	return f, nil
}

// stop closes every listener and connection, drains each server and
// waits for the serve goroutines to return.
func (f *fleet) stop() {
	for i := range f.srvs {
		_ = f.https[i].Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = f.srvs[i].Shutdown(ctx)
		cancel()
	}
	f.wg.Wait()
}

// stats sums the /v1/stats counters the benchmark reads over the fleet.
func (f *fleet) stats() fleetStats {
	var s fleetStats
	for _, srv := range f.srvs {
		st := srv.Stats()
		s.hits += st.Cache.Hits
		s.misses += st.Cache.Misses
		s.shared += st.Cache.SingleflightShared
		s.shed += st.Resilience.ShedTotal
		if c := st.Cluster; c != nil {
			s.local += c.ServedLocal
			s.peer += c.ServedPeerFetch
			s.forwarded += c.ServedForwarded
			s.forwardFailures += c.ForwardFailures
			s.syncFailures += c.SyncFailures
			s.entriesSent += c.EntriesSent
		}
	}
	return s
}

type fleetStats struct {
	hits, misses, shared, shed                 uint64
	local, peer, forwarded                     uint64
	forwardFailures, syncFailures, entriesSent uint64
}

func (a fleetStats) sub(b fleetStats) fleetStats {
	return fleetStats{
		hits: a.hits - b.hits, misses: a.misses - b.misses, shared: a.shared - b.shared,
		shed:  a.shed - b.shed,
		local: a.local - b.local, peer: a.peer - b.peer, forwarded: a.forwarded - b.forwarded,
		forwardFailures: a.forwardFailures - b.forwardFailures,
		syncFailures:    a.syncFailures - b.syncFailures,
		entriesSent:     a.entriesSent - b.entriesSent,
	}
}

// reqIDHeader carries the benchmark's request index from the client to
// the traced run's handler wrapper, which strips it before the server
// sees the request.
const reqIDHeader = "X-Perfbench-Req"

// client posts maximize bodies over at most `conns` connections per
// replica.
type client struct {
	hc    *http.Client
	conns int
}

func newClient(conns int) *client {
	return &client{conns: conns, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one maximize request and reads the whole reply. reqID < 0
// sends no request-ID header. status 0 means a transport error.
func (c *client) post(ctx context.Context, url string, body []byte, reqID int) (int, []byte) {
	ctx, cancel := context.WithTimeout(ctx, (requestTimeoutS+30)*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/maximize", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	hreq.Header.Set("Content-Type", "application/json")
	if reqID >= 0 {
		hreq.Header.Set(reqIDHeader, strconv.Itoa(reqID))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}
