package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"thermosc"
	"thermosc/internal/cluster"
	"thermosc/internal/floorplan"
)

// benchReq is one generated request: when it is due (open loop only),
// which replica receives it, and the /v1/maximize body. The body is all
// the program sees of the workload.
type benchReq struct {
	at     time.Duration
	target int
	body   []byte
	name   string // "<platform> <method> <tmax>": the key in known-violation lists and reports
}

// workload is one traffic mix.
type workload struct {
	name string
	// replicas is the fleet size: 3 builds the in-process cluster
	// thermosc-load -cluster 3 builds; 1 is a single process.
	replicas int
	// rateHz > 0 selects the open-loop Poisson driver; 0 the closed loop
	// with `clients` clients.
	rateHz  float64
	clients int
	// tailP is the latency_tail_ms percentile, fixed per workload with
	// at least ten samples beyond it at the workload's usual request
	// count (p99 of ~18,000 on the fleet, p75 of ~130 on cold-dense).
	// Higher percentiles spread by more than the largest bound allowed.
	tailP float64
	// auditCap bounds the distinct keys audited by the correctness gate
	// (0 audits every key). Sparse audits take about 2 s each.
	auditCap int
	requests func(seed int64, seconds float64) ([]benchReq, error)
	prefill  func() []benchReq
	// grid lists every key the workload can draw, known violations
	// included (--grid-check).
	grid func() []benchReq
}

var workloads = []*workload{
	{
		name:     "fleet3-zipf",
		replicas: 3,
		rateHz:   fleetRateHz,
		tailP:    0.99,
		requests: fleetRequests,
		prefill:  fleetPrefill,
		grid:     fleetGrid,
	},
	{
		name:     "cold-dense",
		replicas: 1,
		clients:  1,
		tailP:    0.75,
		requests: denseCold.requests,
		prefill:  denseCold.prefill,
		grid:     denseCold.grid,
	},
	{
		name:     "cold-sparse",
		replicas: 1,
		clients:  1,
		tailP:    0.75,
		auditCap: 4,
		requests: sparseCold.requests,
		prefill:  sparseCold.prefill,
		grid:     sparseCold.grid,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fleetRateHz is the fleet's open-loop arrival rate: it keeps about a
// quarter of the benchmark's one CPU busy, so queues stay short and
// latency reflects the layers, not saturation.
const fleetRateHz = 400

// requestTimeoutS is the deadline sent with every request: far above any
// solve in these workloads, so nothing degrades.
const requestTimeoutS = 120

// tmaxGrid returns lo..hi (inclusive) in steps, all in hundredths of a
// degree, so every threshold is an exact short decimal.
func tmaxGrid(lo, hi, step int) []float64 {
	var out []float64
	for c := lo; c <= hi; c += step {
		out = append(out, float64(c)/100)
	}
	return out
}

// genSpec returns the floorplan catalog entry with the given name.
func genSpec(name string) floorplan.GenSpec {
	for _, g := range floorplan.Catalog() {
		if g.Name == name {
			return g
		}
	}
	panic("perfbench: no catalog platform " + name)
}

// platformSpec is the wire spec the load generator sends for a catalog
// platform: paper level set 3, every other field at its default.
func platformSpec(name string) thermosc.PlatformSpec {
	g := genSpec(name)
	spec := thermosc.PlatformSpec{Rows: g.Rows, Cols: g.Cols, PaperLevels: 3, CoreEdgeM: g.CoreEdge, CoreScales: g.Scales}
	if g.Layers > 1 {
		spec.StackLayers = g.Layers
	}
	return spec
}

func keyName(platform string, method thermosc.Method, tmaxC float64) string {
	return fmt.Sprintf("%s %s %s", platform, method, strconv.FormatFloat(tmaxC, 'f', -1, 64))
}

func maximizeBody(platform string, method thermosc.Method, tmaxC, timeoutS float64) []byte {
	b, err := json.Marshal(thermosc.MaximizeRequest{
		Platform: platformSpec(platform),
		TmaxC:    tmaxC,
		Method:   method,
		TimeoutS: timeoutS,
	})
	if err != nil {
		panic(err) // plain structs of finite numbers always encode
	}
	return b
}

// fleetConfig is the zipf workload: cluster.LoadConfig over mesh-2x1 and
// mesh-3x3 (MaxCores 9) × 301 thresholds 55.0–85.0 °C × {AO, LNS}, 1204
// keys against a 256-plan LRU. Targets are replica indices.
func fleetConfig(seed int64, requests int) cluster.LoadConfig {
	return cluster.LoadConfig{
		Targets:     []string{"0", "1", "2"},
		Requests:    requests,
		RateHz:      fleetRateHz,
		Curve:       cluster.CurvePoisson,
		ZipfS:       1.2,
		ZipfV:       1,
		Seed:        seed,
		MaxCores:    9,
		TmaxC:       tmaxGrid(5500, 8500, 10),
		Methods:     []string{string(thermosc.MethodAO), string(thermosc.MethodLNS)},
		PaperLevels: 3,
		TimeoutMinS: 30,
		TimeoutMaxS: 60,
	}
}

// fleetRequests builds the open-loop schedule with the load generator's
// own Workload, keeping its bodies, due times and replica picks.
func fleetRequests(seed int64, seconds float64) ([]benchReq, error) {
	lrs, err := fleetConfig(seed, int(math.Ceil(fleetRateHz*seconds))).Workload()
	if err != nil {
		return nil, err
	}
	out := make([]benchReq, 0, len(lrs))
	for _, lr := range lrs {
		target, err := strconv.Atoi(lr.Target)
		if err != nil {
			return nil, fmt.Errorf("load generator target %q: %w", lr.Target, err)
		}
		var req thermosc.MaximizeRequest
		if err := json.Unmarshal(lr.Body, &req); err != nil {
			return nil, fmt.Errorf("decoding generated body: %w", err)
		}
		name := keyName(lr.Platform, req.Method, req.TmaxC)
		if _, bad := knownViolations[name]; bad {
			continue
		}
		out = append(out, benchReq{at: lr.At, target: target, body: lr.Body, name: name})
	}
	return out, nil
}

// fleetPrefillKeys is how many of the hottest zipf ranks setup solves.
const fleetPrefillKeys = 128

// fleetPrefill warms the hot head: the top zipf ranks are the catalog's
// first platform (mesh-2x1) at the lowest thresholds, AO before LNS, in
// the load generator's catalog order.
func fleetPrefill() []benchReq {
	var out []benchReq
	for _, tm := range tmaxGrid(5500, 8500, 10) {
		for _, m := range []thermosc.Method{thermosc.MethodAO, thermosc.MethodLNS} {
			if len(out) == fleetPrefillKeys {
				return out
			}
			name := keyName("mesh-2x1", m, tm)
			if _, bad := knownViolations[name]; bad {
				continue
			}
			out = append(out, benchReq{target: len(out) % 3, body: maximizeBody("mesh-2x1", m, tm, requestTimeoutS), name: name})
		}
	}
	return out
}

// coldMix describes a closed-loop list of distinct keys. The list walks
// rounds; each round visits every threshold band and, inside a band,
// every platform with each method slot. Bands are visited in bit-reversed
// order, so any prefix of a round (where the window closes) spreads over
// the whole threshold range instead of ending among the hottest, most
// expensive bands. The seed only picks which grid threshold inside the
// band each visit draws (without replacement), so every seed gets the
// same mix of platform, method and band and the runs differ only in the
// exact thresholds.
type coldMix struct {
	platforms []string
	slots     []thermosc.Method // method per visit; repeats weight the mix
	grids     map[thermosc.Method][]float64
	bandC     float64 // band width in °C, from 55 °C
	bands     int     // band count; the last band also takes the grid's top
}

var denseCold = coldMix{
	platforms: []string{"mesh-3x3", "biglittle-4x4-s1", "stack-3x3x2"},
	slots:     []thermosc.Method{thermosc.MethodAO, thermosc.MethodPCO},
	grids: map[thermosc.Method][]float64{
		thermosc.MethodAO:  tmaxGrid(5500, 6590, 10),
		thermosc.MethodPCO: tmaxGrid(5500, 6590, 10),
	},
	bandC: 1,
	bands: 11,
}

var sparseCold = coldMix{
	platforms: []string{"mesh-8x8", "biglittle-8x8-s2"},
	slots:     []thermosc.Method{thermosc.MethodAO, thermosc.MethodAO, thermosc.MethodAO, thermosc.MethodAO, thermosc.MethodPCO},
	grids: map[thermosc.Method][]float64{
		thermosc.MethodAO:  tmaxGrid(5500, 8500, 25),
		thermosc.MethodPCO: tmaxGrid(5500, 8500, 50),
	},
	bandC: 5,
	bands: 6,
}

// band returns the index of the band holding threshold t.
func (c coldMix) band(t float64) int {
	return min(int(math.Floor((t-55)/c.bandC)), c.bands-1)
}

// bitReversed returns 0..n-1 in bit-reversed order (0, n/2, n/4, 3n/4, …
// for a power of two), a low-discrepancy visiting order.
func bitReversed(n int) []int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	out := make([]int, 0, n)
	for i := 0; i < 1<<bits; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		if r < n {
			out = append(out, r)
		}
	}
	return out
}

// requests builds the list. The seconds argument is unused: a closed
// loop consumes the list until the window closes, and the list holds
// every key of the grid.
func (c coldMix) requests(seed int64, _ float64) ([]benchReq, error) {
	rng := rand.New(rand.NewSource(seed))
	nBands := c.bands
	methods := []thermosc.Method{thermosc.MethodAO, thermosc.MethodPCO}
	// pools[platform][method][band] holds the unused thresholds, shuffled.
	pools := make([][][][]float64, len(c.platforms))
	for p, plat := range c.platforms {
		pools[p] = make([][][]float64, len(methods))
		for m, method := range methods {
			pools[p][m] = make([][]float64, nBands)
			for _, t := range c.grids[method] {
				if _, bad := knownViolations[keyName(plat, method, t)]; bad {
					continue
				}
				b := c.band(t)
				pools[p][m][b] = append(pools[p][m][b], t)
			}
			for b := range pools[p][m] {
				pool := pools[p][m][b]
				rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			}
		}
	}
	var out []benchReq
	for {
		added := 0
		for _, b := range bitReversed(nBands) {
			for p, plat := range c.platforms {
				for _, method := range c.slots {
					m := 0
					if method == thermosc.MethodPCO {
						m = 1
					}
					pool := pools[p][m][b]
					if len(pool) == 0 {
						continue
					}
					t := pool[len(pool)-1]
					pools[p][m][b] = pool[:len(pool)-1]
					out = append(out, benchReq{body: maximizeBody(plat, method, t, requestTimeoutS), name: keyName(plat, method, t)})
					added++
				}
			}
		}
		if added == 0 {
			return out, nil
		}
	}
}

// prefill builds each platform (and its shared engine) in the server with
// one LNS solve at 85 °C, where LNS is feasible on every platform. LNS
// keys never appear in the timed list, so the plan LRU stays cold while
// the platform LRU is warm.
func (c coldMix) prefill() []benchReq {
	out := make([]benchReq, len(c.platforms))
	for i, plat := range c.platforms {
		out[i] = benchReq{body: maximizeBody(plat, thermosc.MethodLNS, 85, requestTimeoutS), name: keyName(plat, thermosc.MethodLNS, 85)}
	}
	return out
}

// fleetGrid is every key of the zipf catalog.
func fleetGrid() []benchReq {
	cfg := fleetConfig(1, 1)
	var out []benchReq
	for _, plat := range []string{"mesh-2x1", "mesh-3x3"} {
		for _, t := range cfg.TmaxC {
			for _, m := range cfg.Methods {
				method := thermosc.Method(m)
				out = append(out, benchReq{body: maximizeBody(plat, method, t, requestTimeoutS), name: keyName(plat, method, t)})
			}
		}
	}
	return out
}

// grid is every key of the mix.
func (c coldMix) grid() []benchReq {
	var out []benchReq
	for _, plat := range c.platforms {
		for _, method := range []thermosc.Method{thermosc.MethodAO, thermosc.MethodPCO} {
			for _, t := range c.grids[method] {
				out = append(out, benchReq{body: maximizeBody(plat, method, t, requestTimeoutS), name: keyName(plat, method, t)})
			}
		}
	}
	return out
}
