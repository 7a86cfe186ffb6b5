package rig

import (
	"bytes"
	"sync"
	"testing"
)

// Concurrent independent rigs on the same scenario must not share state:
// byte-identical traces from parallel runs.
func TestRigParallelRunsDeterministic(t *testing.T) {
	sc := faultySc(33)
	sc.HorizonS = 1

	const n = 4
	traces := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			r, err := New(sc)
			if err != nil {
				panic(err)
			}
			plan, err := PlanAO(r)
			if err != nil {
				panic(err)
			}
			guard, err := GuardFor(r.Scenario(), plan, r.Levels())
			if err != nil {
				panic(err)
			}
			if _, err := r.Run(guard); err != nil {
				panic(err)
			}
			tj, err := r.TraceJSON()
			if err != nil {
				panic(err)
			}
			traces[slot] = tj
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(traces[0], traces[i]) {
			t.Fatalf("parallel run %d diverged from run 0", i)
		}
	}
}

// The soak worker pool itself must be race-free and order-stable.
func TestSoakParallelWorkers(t *testing.T) {
	base := &Scenario{HorizonS: 1}
	one, err := soak(base, 6, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	many, err := soak(base, 6, 5, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one.Scenarios {
		a, b := one.Scenarios[i].Report, many.Scenarios[i].Report
		if a.TraceSHA256 != b.TraceSHA256 {
			t.Fatalf("scenario %d: worker count changed the trace", i)
		}
	}
}
