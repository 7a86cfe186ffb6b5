package thermosc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// This file is the request surface of the planning service: the JSON
// platform/request schemas, their strict validation, and the canonical
// cache keying. Canonicalization is what makes the plan cache sound —
// two requests describing the same problem in different spellings
// (paper_levels vs the explicit voltage list, defaults omitted vs
// spelled out) normalize to the same key, and the key excludes knobs
// that cannot change the plan (timeouts).

// PlatformSpec is the wire description of a platform for the serving
// API. Zero-valued optional fields select the repository's calibrated
// defaults (the same ones New applies).
type PlatformSpec struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// PaperLevels selects the paper's Table IV level set (n ∈ {2..5});
	// mutually exclusive with Voltages. When both are empty the full
	// 0.6–1.3 V range in 0.05 V steps is used.
	PaperLevels int       `json:"paper_levels,omitempty"`
	Voltages    []float64 `json:"voltages,omitempty"`
	AmbientC    float64   `json:"ambient_c,omitempty"`    // 0 → 35 °C
	PeriodS     float64   `json:"period_s,omitempty"`     // 0 → 20 ms
	OverheadS   *float64  `json:"overhead_s,omitempty"`   // nil → 5 µs; 0 disables
	CoreEdgeM   float64   `json:"core_edge_m,omitempty"`  // 0 → 4 mm
	ConvectionR float64   `json:"convection_r,omitempty"` // 0 → package default
	StackLayers int       `json:"stack_layers,omitempty"` // 0/1 → planar
	CoreScales  []float64 `json:"core_scales,omitempty"`  // heterogeneity factors
	CoreLevel   bool      `json:"core_level,omitempty"`   // single-node-per-core model
}

// MaximizeRequest is the body of POST /v1/maximize.
type MaximizeRequest struct {
	Platform PlatformSpec `json:"platform"`
	TmaxC    float64      `json:"tmax_c"`
	Method   Method       `json:"method"`
	// TimeoutS bounds this request's solve in seconds (capped by the
	// server's MaxTimeout; 0 uses the server default). Not part of the
	// cache key — it cannot change the plan, only whether it arrives.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// MaximizeResponse is the body of a successful /v1/maximize reply. Plan
// bytes are a pure function of the canonicalized request: the solver is
// deterministic and served plans carry solver_elapsed_s = 0, so a cache
// hit is bit-identical to a cold solve.
type MaximizeResponse struct {
	Plan json.RawMessage `json:"plan"`
	// Cached reports whether the plan came from the LRU cache.
	Cached bool `json:"cached"`
	// Shared reports whether this request joined another in-flight solve
	// of the same key (singleflight) instead of solving itself.
	Shared bool `json:"shared"`
	// Key identifies the canonical request (truncated SHA-256, for
	// debugging and cache correlation).
	Key string `json:"key"`
	// ElapsedS is this request's wall-clock handling time.
	ElapsedS float64 `json:"elapsed_s"`
	// Degraded reports an anytime plan: the solve was truncated by its
	// deadline (or routed to the safe floor) and this is the best valid
	// plan available — thermally verified, but possibly below the
	// throughput a complete solve would reach. DegradedReason says which
	// stage was cut short. Both omitted for complete plans, so complete
	// responses are byte-stable against earlier releases.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Stale reports a stale-while-revalidate hit: the cached plan is
	// degraded and a background refresh is replacing it; this response
	// still carries the old, verified bytes.
	Stale bool `json:"stale,omitempty"`
	// Source reports which fleet layer answered: "local" (this replica's
	// cache or solver), "peer" (replicated-store entry that arrived from
	// another replica), or "forwarded" (proxied to the key's owner). Set
	// only in cluster mode, so single-process responses stay byte-stable
	// against earlier releases.
	Source string `json:"source,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate: replay a plan on a
// platform and return the transient trace from ambient plus the
// verified stable-status peak.
type SimulateRequest struct {
	Platform         PlatformSpec    `json:"platform"`
	Plan             json.RawMessage `json:"plan"`
	Periods          int             `json:"periods,omitempty"`            // default 3
	SamplesPerPeriod int             `json:"samples_per_period,omitempty"` // default 64
}

// SimulateResponse is the body of a successful /v1/simulate reply.
type SimulateResponse struct {
	TimeS     []float64   `json:"time_s"`
	CoreTempC [][]float64 `json:"core_temp_c"`
	// MaxC is the hottest sampled temperature in the transient trace.
	MaxC float64 `json:"max_c"`
	// VerifiedPeakC is the dense stable-status peak of the plan's
	// schedule — the temperature the chip settles into, independent of
	// the trace's sampling.
	VerifiedPeakC float64 `json:"verified_peak_c"`
	ElapsedS      float64 `json:"elapsed_s"`
}

// requestError is a validation failure that maps to a 4xx status.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &requestError{status: 400, msg: fmt.Sprintf(format, args...)}
}

// finite rejects NaN/±Inf — JSON itself cannot carry them as literals,
// but overflowing numbers and future decoders can.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// serveLimits are the resource caps the decoder enforces; oversized or
// degenerate requests are rejected before any thermal model is built.
type serveLimits struct {
	maxCores    int
	maxVoltages int
}

// maxTraceSamples caps periods × samples_per_period in /v1/simulate.
const maxTraceSamples = 1 << 17

// normalizePlatform validates spec against the limits and returns its
// canonical form: every default spelled out, the level set expanded to
// an explicit ascending voltage list, all-ones core scales dropped.
// Building a Platform from the canonical spec is equivalent to building
// it from the original.
func normalizePlatform(spec PlatformSpec, lim serveLimits) (PlatformSpec, error) {
	c := spec
	if c.Rows < 1 || c.Cols < 1 {
		return c, badRequestf("platform: rows/cols must be >= 1, got %dx%d", c.Rows, c.Cols)
	}
	if c.StackLayers == 0 {
		c.StackLayers = 1
	}
	if c.StackLayers < 1 {
		return c, badRequestf("platform: invalid stack_layers %d", spec.StackLayers)
	}
	cores := c.Rows * c.Cols * c.StackLayers
	if c.Rows > lim.maxCores || c.Cols > lim.maxCores || c.StackLayers > lim.maxCores || cores > lim.maxCores {
		return c, badRequestf("platform: %d cores exceeds the server cap of %d", cores, lim.maxCores)
	}
	if c.CoreLevel && c.StackLayers > 1 {
		return c, badRequestf("platform: core_level and stack_layers are mutually exclusive")
	}
	if len(c.CoreScales) > 0 && c.CoreLevel {
		return c, badRequestf("platform: core_scales are not supported by the core-level model")
	}

	// Level set → explicit canonical voltages.
	switch {
	case c.PaperLevels != 0 && len(c.Voltages) > 0:
		return c, badRequestf("platform: paper_levels and voltages are mutually exclusive")
	case c.PaperLevels != 0:
		ls, err := power.PaperLevels(c.PaperLevels)
		if err != nil {
			return c, badRequestf("platform: %v", err)
		}
		c.Voltages = ls.Voltages()
	case len(c.Voltages) == 0:
		c.Voltages = power.FullRange().Voltages()
	default:
		if len(c.Voltages) > lim.maxVoltages {
			return c, badRequestf("platform: %d voltage levels exceeds the cap of %d", len(c.Voltages), lim.maxVoltages)
		}
		for _, v := range c.Voltages {
			if !validVoltage(v) {
				return c, badRequestf("platform: voltage %v outside [0.001, 10] V", v)
			}
		}
		ls, err := power.NewLevelSet(c.Voltages...)
		if err != nil {
			return c, badRequestf("platform: %v", err)
		}
		c.Voltages = ls.Voltages() // sorted, deduplicated canonical order
	}
	c.PaperLevels = 0

	// Scalar defaults (the same values New applies).
	if c.AmbientC == 0 {
		c.AmbientC = thermal.HotSpot65nm().AmbientC
	}
	if !finite(c.AmbientC) || c.AmbientC < -273.15 || c.AmbientC > 500 {
		return c, badRequestf("platform: ambient_c %v outside [-273.15, 500]", spec.AmbientC)
	}
	if c.PeriodS == 0 {
		c.PeriodS = defaultPeriodS
	}
	if !finite(c.PeriodS) || c.PeriodS < 1e-6 || c.PeriodS > 3600 {
		// The 1 µs floor rejects subnormal periods at decode (400) rather
		// than letting the solver inherit a degenerate quantum (500).
		return c, badRequestf("platform: period_s %v outside [1e-6, 3600]", spec.PeriodS)
	}
	if c.OverheadS == nil {
		tau := power.DefaultOverhead().Tau
		c.OverheadS = &tau
	} else {
		tau := *c.OverheadS
		if !finite(tau) || tau < 0 || tau > c.PeriodS {
			return c, badRequestf("platform: overhead_s %v outside [0, period]", tau)
		}
		c.OverheadS = &tau // detach from the caller's pointer
	}
	if c.CoreEdgeM == 0 {
		c.CoreEdgeM = defaultCoreEdgeM
	}
	if !finite(c.CoreEdgeM) || c.CoreEdgeM < 1e-5 || c.CoreEdgeM > 1 {
		return c, badRequestf("platform: core_edge_m %v outside [1e-5, 1]", spec.CoreEdgeM)
	}
	if c.ConvectionR == 0 && cores <= thermal.ScalePackageRefCores {
		c.ConvectionR = thermal.HotSpot65nm().ConvectionR
	}
	// Past the package-calibration size, 0 stays canonical: it means the
	// automatically scaled package (New shrinks the convection resistance
	// with the core count), while an explicit value pins the convection
	// path and disables that scaling — genuinely different platforms.
	if c.ConvectionR != 0 && (!finite(c.ConvectionR) || c.ConvectionR < 1e-6 || c.ConvectionR > 1e3) {
		return c, badRequestf("platform: convection_r %v outside [1e-6, 1000]", spec.ConvectionR)
	}

	if len(c.CoreScales) > 0 {
		if len(c.CoreScales) != cores {
			return c, badRequestf("platform: %d core_scales for %d cores", len(c.CoreScales), cores)
		}
		uniform := true
		for _, s := range c.CoreScales {
			if !finite(s) || s <= 0 || s > 100 {
				return c, badRequestf("platform: core scale %v outside (0, 100]", s)
			}
			if s != 1 {
				uniform = false
			}
		}
		if uniform {
			c.CoreScales = nil // canonical: all-ones ≡ homogeneous
		} else {
			c.CoreScales = append([]float64(nil), c.CoreScales...)
		}
	}
	return c, nil
}

// platform builds the Platform a canonical spec describes.
func (spec PlatformSpec) platform() (*Platform, error) {
	opts := []Option{
		WithVoltageLevels(spec.Voltages...),
		WithAmbientC(spec.AmbientC),
		WithBasePeriod(spec.PeriodS),
		WithTransitionOverhead(*spec.OverheadS),
		WithCoreEdge(spec.CoreEdgeM),
	}
	if spec.ConvectionR != 0 {
		// 0 is the canonical "auto-scaled package" spelling on large
		// platforms (see normalizePlatform); an explicit value pins it.
		opts = append(opts, WithConvectionR(spec.ConvectionR))
	}
	if spec.StackLayers > 1 {
		opts = append(opts, WithStackedLayers(spec.StackLayers))
	}
	if spec.CoreLevel {
		opts = append(opts, WithCoreLevelModel())
	}
	if len(spec.CoreScales) > 0 {
		opts = append(opts, WithCoreScales(spec.CoreScales...))
	}
	return New(spec.Rows, spec.Cols, opts...)
}

// canonicalMaximize is the cache identity of a maximize request: the
// canonical platform, the threshold, and the method — nothing else.
type canonicalMaximize struct {
	Platform PlatformSpec `json:"platform"`
	TmaxC    float64      `json:"tmax_c"`
	Method   Method       `json:"method"`
}

// parseMaximizeRequest decodes and validates a /v1/maximize body and
// returns the normalized request plus its canonical cache keys: planKey
// identifies (platform, Tmax, method) and platKey the platform alone
// (the engine-sharing granularity). All failures are 4xx requestErrors.
func parseMaximizeRequest(body []byte, lim serveLimits) (req MaximizeRequest, planKey, platKey string, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, "", "", badRequestf("decoding request: %v", err)
	}
	if dec.More() {
		return req, "", "", badRequestf("trailing data after request object")
	}
	norm, err := normalizePlatform(req.Platform, lim)
	if err != nil {
		return req, "", "", err
	}
	req.Platform = norm

	req.Method = Method(strings.ToUpper(string(req.Method)))
	if req.Method == Method(strings.ToUpper(string(MethodIdeal))) {
		req.Method = MethodIdeal
	}
	switch req.Method {
	case MethodIdeal, MethodLNS, MethodEXS, MethodAO, MethodPCO:
	default:
		return req, "", "", badRequestf("unknown method %q (want one of Ideal, LNS, EXS, AO, PCO)", req.Method)
	}
	if !finite(req.TmaxC) {
		return req, "", "", badRequestf("tmax_c %v is not finite", req.TmaxC)
	}
	if req.TmaxC < norm.AmbientC+1e-3 {
		// A threshold within 1 mK of ambient leaves no thermal headroom
		// for any schedule; it would only send the solvers on a futile
		// search.
		return req, "", "", badRequestf("tmax_c %.4f not above ambient %.2f", req.TmaxC, norm.AmbientC)
	}
	if req.TmaxC > 1000 {
		return req, "", "", badRequestf("tmax_c %v outside the plausible range", req.TmaxC)
	}
	if !finite(req.TimeoutS) || req.TimeoutS < 0 {
		return req, "", "", badRequestf("invalid timeout_s %v", req.TimeoutS)
	}

	planKey, err = canonicalKey(canonicalMaximize{Platform: norm, TmaxC: req.TmaxC, Method: req.Method})
	if err != nil {
		return req, "", "", err
	}
	platKey, err = canonicalKey(norm)
	if err != nil {
		return req, "", "", err
	}
	return req, planKey, platKey, nil
}

// validVoltage reports whether v is a usable DVFS voltage. The 1 mV floor
// keeps subnormal voltages out of the power model, where they would starve
// every downstream quantity of float precision; the 10 V ceiling keeps the
// cubic dynamic power, and the temperatures it drives, finite.
func validVoltage(v float64) bool { return finite(v) && v >= 1e-3 && v <= 10 }

// parseSimulateRequest decodes and validates a /v1/simulate body. The
// plan itself is validated by Plan.UnmarshalJSON (structural invariants:
// finite slice lengths/voltages, slices summing to the period); its slice
// voltages must also be 0 or platform-plausible.
func parseSimulateRequest(body []byte, lim serveLimits) (spec PlatformSpec, plan *Plan, periods, samples int, platKey string, err error) {
	var req SimulateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return spec, nil, 0, 0, "", badRequestf("decoding request: %v", err)
	}
	if dec.More() {
		return spec, nil, 0, 0, "", badRequestf("trailing data after request object")
	}
	spec, err = normalizePlatform(req.Platform, lim)
	if err != nil {
		return spec, nil, 0, 0, "", err
	}
	if len(req.Plan) == 0 {
		return spec, nil, 0, 0, "", badRequestf("missing plan")
	}
	plan = new(Plan)
	if err := json.Unmarshal(req.Plan, plan); err != nil {
		return spec, nil, 0, 0, "", badRequestf("decoding plan: %v", err)
	}
	if len(plan.Cores) == 0 {
		return spec, nil, 0, 0, "", badRequestf("plan carries no schedule (infeasible plans cannot be simulated)")
	}
	if len(plan.Cores) != spec.Rows*spec.Cols*spec.StackLayers {
		return spec, nil, 0, 0, "", badRequestf("plan has %d cores, platform %d",
			len(plan.Cores), spec.Rows*spec.Cols*spec.StackLayers)
	}
	for i, slices := range plan.Cores {
		for _, sl := range slices {
			if sl.Voltage != 0 && !validVoltage(sl.Voltage) {
				return spec, nil, 0, 0, "", badRequestf("plan core %d: slice voltage %v is neither 0 (off) nor inside [0.001, 10] V", i, sl.Voltage)
			}
		}
	}
	periods, samples = req.Periods, req.SamplesPerPeriod
	if periods == 0 {
		periods = 3
	}
	if samples == 0 {
		samples = 64
	}
	if periods < 1 || samples < 1 {
		return spec, nil, 0, 0, "", badRequestf("invalid trace request (%d periods, %d samples)", req.Periods, req.SamplesPerPeriod)
	}
	// periods*samples can overflow int, so the cap divides instead.
	if periods > maxTraceSamples/samples {
		return spec, nil, 0, 0, "", badRequestf("trace of %d periods × %d samples exceeds the cap of %d samples",
			periods, samples, maxTraceSamples)
	}
	platKey, err = canonicalKey(spec)
	if err != nil {
		return spec, nil, 0, 0, "", err
	}
	return spec, plan, periods, samples, platKey, nil
}

// canonicalKey serializes v deterministically (fixed struct field order,
// shortest-roundtrip float encoding) into a cache key.
func canonicalKey(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", badRequestf("canonicalizing request: %v", err)
	}
	return string(b), nil
}

// keyDigest is the short request fingerprint exposed in responses and
// logs (the full canonical key stays server-internal).
func keyDigest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}
