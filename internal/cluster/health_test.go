package cluster

import (
	"fmt"
	"testing"
)

// observeN folds n identical observations for peer and returns the last
// (state, transitioned) pair.
func observeN(d *Detector, peer string, ok bool, n int) (string, bool) {
	var state string
	var trans bool
	for i := 0; i < n; i++ {
		state, trans = d.Observe(peer, ok, 0)
	}
	return state, trans
}

// The full state machine walk the detector exists for:
// alive → suspect → dead → (probation) → alive, with every transition
// reported exactly once.
func TestDetectorStateMachine(t *testing.T) {
	d := NewDetector([]string{"p"})

	if d.State("p") != StateAlive || d.Down("p") {
		t.Fatalf("initial state %q down=%v, want alive/up", d.State("p"), d.Down("p"))
	}
	// One failure is a blip: still alive, no transition.
	if state, trans := d.Observe("p", false, 0); state != StateAlive || trans {
		t.Fatalf("after 1 failure: %q trans=%v, want alive/false", state, trans)
	}
	// The second consecutive failure crosses suspectAfter.
	if state, trans := d.Observe("p", false, 0); state != StateSuspect || !trans {
		t.Fatalf("after 2 failures: %q trans=%v, want suspect/true", state, trans)
	}
	if !d.Down("p") {
		t.Fatal("suspect peer not reported down")
	}
	// Third failure: still suspect, no new transition.
	if state, trans := d.Observe("p", false, 0); state != StateSuspect || trans {
		t.Fatalf("after 3 failures: %q trans=%v, want suspect/false", state, trans)
	}
	// Fourth crosses deadAfter.
	if state, trans := d.Observe("p", false, 0); state != StateDead || !trans {
		t.Fatalf("after 4 failures: %q trans=%v, want dead/true", state, trans)
	}

	// Probation: a single success does NOT re-admit a dead peer, but it
	// is visible as "recovering".
	if state, trans := d.Observe("p", true, 0); state != StateDead || trans {
		t.Fatalf("first success after death: %q trans=%v, want dead/false (probation)", state, trans)
	}
	if h := d.Health("p"); !h.Recovering || h.ConsecOKs != 1 {
		t.Fatalf("probation snapshot: %+v, want recovering with 1 consecutive OK", h)
	}
	// A failure during probation resets the streak.
	if state, _ := d.Observe("p", false, 0); state != StateDead {
		t.Fatalf("failure during probation: %q, want dead", state)
	}
	if h := d.Health("p"); h.Recovering || h.ConsecOKs != 0 {
		t.Fatalf("post-probation-failure snapshot: %+v, want streak reset", h)
	}
	// recoverAfter consecutive successes re-admit, reported once.
	if state, trans := d.Observe("p", true, 0); state != StateDead || trans {
		t.Fatalf("probation success 1: %q trans=%v", state, trans)
	}
	if state, trans := d.Observe("p", true, 0); state != StateAlive || !trans {
		t.Fatalf("probation success 2: %q trans=%v, want alive/true", state, trans)
	}
	if d.Down("p") {
		t.Fatal("recovered peer still reported down")
	}
}

// A suspect peer recovers on its FIRST success — suspect models a blip,
// not a death, so no probation applies.
func TestDetectorSuspectRecoversImmediately(t *testing.T) {
	d := NewDetector([]string{"p"})
	observeN(d, "p", false, suspectAfter)
	if d.State("p") != StateSuspect {
		t.Fatalf("state %q, want suspect", d.State("p"))
	}
	if state, trans := d.Observe("p", true, 0); state != StateAlive || !trans {
		t.Fatalf("suspect + 1 success: %q trans=%v, want alive/true", state, trans)
	}
	// And the failure streak restarts from zero: it takes suspectAfter
	// NEW failures to suspect again.
	if state, _ := d.Observe("p", false, 0); state != StateAlive {
		t.Fatalf("one failure after recovery: %q, want alive", state)
	}
}

// Counts, unknown peers, and lazy registration.
func TestDetectorCountsAndUnknownPeers(t *testing.T) {
	d := NewDetector([]string{"a", "b", "c"})
	if a, s, x := d.Counts(); a != 3 || s != 0 || x != 0 {
		t.Fatalf("initial counts %d/%d/%d", a, s, x)
	}
	observeN(d, "a", false, suspectAfter)
	observeN(d, "b", false, deadAfter)
	if a, s, x := d.Counts(); a != 1 || s != 1 || x != 1 {
		t.Fatalf("counts %d/%d/%d, want 1/1/1", a, s, x)
	}
	// Unknown peers read alive and don't register...
	if d.State("ghost") != StateAlive || d.Down("ghost") {
		t.Fatal("unknown peer not optimistically alive")
	}
	if h := d.Health("ghost"); h.State != StateAlive || h.Transitions != 0 {
		t.Fatalf("unknown peer snapshot: %+v", h)
	}
	if a, _, _ := d.Counts(); a != 1 {
		t.Fatal("reading an unknown peer registered it")
	}
	// ...until observed, which registers them lazily.
	observeN(d, "ghost", false, suspectAfter)
	if a, s, _ := d.Counts(); a != 1 || s != 2 {
		t.Fatalf("lazy registration counts %d alive %d suspect", a, s)
	}
}

// The transition timeline records every state change in order and stays
// bounded at maxTransitionLog entries (oldest dropped).
func TestDetectorTimelineBounded(t *testing.T) {
	d := NewDetector([]string{"p"})
	// Each flap cycle is three transitions: alive→suspect→dead→alive.
	cycle := []string{StateSuspect, StateDead, StateAlive}
	for i := 0; i < maxTransitionLog; i++ {
		observeN(d, "p", false, deadAfter)
		observeN(d, "p", true, recoverAfter)
	}
	tl := d.Timeline()
	if len(tl) != maxTransitionLog {
		t.Fatalf("timeline length %d, want bound %d", len(tl), maxTransitionLog)
	}
	dropped := len(cycle)*maxTransitionLog - maxTransitionLog
	for i, tr := range tl {
		if tr.Peer != "p" {
			t.Fatalf("entry %d peer %q", i, tr.Peer)
		}
		if want := cycle[(dropped+i)%len(cycle)]; tr.To != want {
			t.Fatalf("entry %d: %s→%s, want →%s (flap order lost)", i, tr.From, tr.To, want)
		}
		if i > 0 && tr.AtUnixS < tl[i-1].AtUnixS {
			t.Fatalf("timeline not chronological at %d", i)
		}
	}
	// Transition counter survives the log truncation.
	if h := d.Health("p"); h.Transitions != uint64(len(cycle)*maxTransitionLog) {
		t.Fatalf("transitions %d, want %d", h.Transitions, len(cycle)*maxTransitionLog)
	}
}

// Concurrent observers must not race or lose observations (run under
// -race in CI).
func TestDetectorConcurrentObserve(t *testing.T) {
	peers := make([]string, 8)
	for i := range peers {
		peers[i] = fmt.Sprintf("p%d", i)
	}
	d := NewDetector(peers)
	done := make(chan struct{})
	for _, p := range peers {
		go func(p string) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				d.Observe(p, i%3 == 0, 0)
				d.State(p)
				d.Counts()
			}
		}(p)
	}
	for range peers {
		<-done
	}
	d.Timeline()
}
