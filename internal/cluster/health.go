package cluster

import (
	"sync"
	"time"
)

// This file is the fleet's failure detector: a per-peer health state
// machine driven by probe observations (dedicated /healthz probes plus
// piggybacked gossip and forward outcomes). The detector is purely
// local — no peer ever votes on another peer's health — because the
// serving layer only needs a LIVE VIEW of the static ring to route
// around trouble, not consensus: a complete plan is a deterministic
// function of its key, so two replicas that briefly disagree about who
// is alive can at worst both solve the same key and produce identical
// bytes.
//
// State machine, per peer:
//
//	alive --suspectAfter consecutive failures--> suspect
//	alive/suspect --deadAfter consecutive failures--> dead
//	suspect --1 success--> alive
//	dead --recoverAfter consecutive successes--> alive   (probation)
//
// Suspect exists so one dropped probe (GC pause, packet loss) downgrades
// routing preference without declaring the peer dead; probation keeps a
// flapping peer from being re-admitted (and sent a re-admission sync
// round) on its first lucky probe.

// Health states.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// The detector's thresholds, in consecutive observations: a peer turns
// suspect at the second failure in a row and dead at the fourth, and a
// dead peer needs two successes in a row to rejoin. A suspect peer
// rejoins on its first success.
const (
	suspectAfter = 2
	deadAfter    = 4
	recoverAfter = 2
)

// maxTransitionLog bounds the detector's global transition timeline
// (oldest entries are dropped) — enough to reconstruct a churn soak,
// small enough to serve inline from a status endpoint.
const maxTransitionLog = 512

// PeerHealth is one peer's externally visible health snapshot.
type PeerHealth struct {
	Peer  string `json:"peer"`
	State string `json:"state"`
	// Recovering marks a dead peer inside its probation window: probes
	// are succeeding but fewer than recoverAfter in a row so far.
	Recovering bool `json:"recovering,omitempty"`
	// ConsecFails / ConsecOKs are the current streaks feeding the state
	// machine.
	ConsecFails int `json:"consec_fails,omitempty"`
	ConsecOKs   int `json:"consec_oks,omitempty"`
	// Transitions counts this peer's state changes since startup.
	Transitions uint64 `json:"transitions"`
	// LastProbeUnixS / LastProbeLatencyS describe the most recent
	// observation (0 = never observed).
	LastProbeUnixS    float64 `json:"last_probe_unix_s,omitempty"`
	LastProbeLatencyS float64 `json:"last_probe_latency_s,omitempty"`
	// LastChangeUnixS is when the peer last changed state.
	LastChangeUnixS float64 `json:"last_change_unix_s,omitempty"`
}

// HealthTransition is one entry of the detector's timeline log.
type HealthTransition struct {
	Peer    string  `json:"peer"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	AtUnixS float64 `json:"at_unix_s"`
}

type peerHealth struct {
	state       string
	consecFails int
	consecOKs   int
	transitions uint64
	lastProbe   time.Time
	lastLatency time.Duration
	lastChange  time.Time
}

// Detector is the thread-safe per-peer health state machine. Peers are
// registered up front (NewDetector) or lazily on first observation;
// unknown peers are alive until observed otherwise.
type Detector struct {
	mu    sync.Mutex
	peers map[string]*peerHealth
	log   []HealthTransition
}

// NewDetector builds a detector over the given peers (all initially
// alive).
func NewDetector(peers []string) *Detector {
	d := &Detector{peers: make(map[string]*peerHealth, len(peers))}
	for _, p := range peers {
		d.peers[p] = &peerHealth{state: StateAlive}
	}
	return d
}

func (d *Detector) peerLocked(peer string) *peerHealth {
	ph, ok := d.peers[peer]
	if !ok {
		ph = &peerHealth{state: StateAlive}
		d.peers[peer] = ph
	}
	return ph
}

// Observe folds one probe outcome into peer's state machine and returns
// the resulting state plus whether this observation caused a
// transition. Callers use the (StateAlive, true) return to run the
// re-admission sync round exactly once per recovery.
func (d *Detector) Observe(peer string, ok bool, latency time.Duration) (state string, transitioned bool) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	ph := d.peerLocked(peer)
	ph.lastProbe = now
	ph.lastLatency = latency
	prev := ph.state
	if ok {
		ph.consecFails = 0
		ph.consecOKs++
		switch ph.state {
		case StateSuspect:
			ph.state = StateAlive
		case StateDead:
			if ph.consecOKs >= recoverAfter {
				ph.state = StateAlive
			}
		}
	} else {
		ph.consecOKs = 0
		ph.consecFails++
		switch {
		case ph.consecFails >= deadAfter:
			ph.state = StateDead
		case ph.consecFails >= suspectAfter && ph.state == StateAlive:
			ph.state = StateSuspect
		}
	}
	if ph.state != prev {
		ph.transitions++
		ph.lastChange = now
		d.log = append(d.log, HealthTransition{
			Peer: peer, From: prev, To: ph.state, AtUnixS: float64(now.UnixNano()) / 1e9,
		})
		if len(d.log) > maxTransitionLog {
			d.log = append(d.log[:0], d.log[len(d.log)-maxTransitionLog:]...)
		}
		return ph.state, true
	}
	return ph.state, false
}

// State returns peer's current state (alive for never-observed peers).
func (d *Detector) State(peer string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ph, ok := d.peers[peer]; ok {
		return ph.state
	}
	return StateAlive
}

// Down reports whether peer should be routed around (suspect or dead).
func (d *Detector) Down(peer string) bool { return d.State(peer) != StateAlive }

// Counts returns how many registered peers are in each state.
func (d *Detector) Counts() (alive, suspect, dead int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ph := range d.peers {
		switch ph.state {
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		default:
			alive++
		}
	}
	return
}

// Health returns peer's full snapshot.
func (d *Detector) Health(peer string) PeerHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	ph, ok := d.peers[peer]
	if !ok {
		return PeerHealth{Peer: peer, State: StateAlive}
	}
	out := PeerHealth{
		Peer:        peer,
		State:       ph.state,
		Recovering:  ph.state == StateDead && ph.consecOKs > 0,
		ConsecFails: ph.consecFails,
		ConsecOKs:   ph.consecOKs,
		Transitions: ph.transitions,
	}
	if !ph.lastProbe.IsZero() {
		out.LastProbeUnixS = float64(ph.lastProbe.UnixNano()) / 1e9
		out.LastProbeLatencyS = ph.lastLatency.Seconds()
	}
	if !ph.lastChange.IsZero() {
		out.LastChangeUnixS = float64(ph.lastChange.UnixNano()) / 1e9
	}
	return out
}

// Timeline returns a copy of the bounded transition log, oldest first —
// the per-peer health timeline the churn soak uploads as a CI artifact.
func (d *Detector) Timeline() []HealthTransition {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]HealthTransition(nil), d.log...)
}
