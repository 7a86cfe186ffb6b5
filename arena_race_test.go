package thermosc

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// N concurrent MaximizeContext solves on one shared Platform must never
// share or leak per-solve arena memory: every solve must return exactly
// the plan a lone solve returns, with the race detector watching the
// pooled-arena acquire/poison/release traffic (this test is part of the
// CI -race job). GOMAXPROCS 2 makes each solve fan its candidate scans
// out over two workers on any host.
func TestConcurrentMaximizeArenaIsolation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	const tmaxC = 60.0
	methods := []Method{MethodAO, MethodPCO}
	refs := make(map[Method]*Plan, len(methods))
	for _, m := range methods {
		ref, err := p.Maximize(m, tmaxC)
		if err != nil {
			t.Fatal(err)
		}
		ref.Elapsed = 0
		refs[m] = ref
	}

	const solvers = 8
	var wg sync.WaitGroup
	wg.Add(solvers)
	for g := 0; g < solvers; g++ {
		go func(g int) {
			defer wg.Done()
			m := methods[g%len(methods)]
			for iter := 0; iter < 2; iter++ {
				plan, err := p.MaximizeContext(context.Background(), m, tmaxC)
				if err != nil {
					t.Errorf("goroutine %d %s: %v", g, m, err)
					return
				}
				plan.Elapsed = 0
				if !reflect.DeepEqual(plan, refs[m]) {
					t.Errorf("goroutine %d %s iter %d: concurrent plan diverged from the lone solve:\n got %+v\nwant %+v",
						g, m, iter, plan, refs[m])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
