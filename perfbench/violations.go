package main

// knownViolations are the workload keys whose served plan Platform.Audit
// rejects at the commit that introduced the benchmark, found by
// --grid-check over every key a workload can draw. The generators skip
// them, so every run's gate sees only keys that passed; the violations
// themselves are findings about the solver (README.md). A fix shows up as
// a clean --grid-check, after which its entries can go.
var knownViolations = map[string]string{
	// "work": the plan claims less throughput than its schedule delivers.
	"mesh-3x3 AO 67.3":          "work: claimed 0.769196431464 vs recovered 0.769318137197 (rel 1.6e-4)",
	"mesh-3x3 AO 74":            "work: claimed 0.821249130818 vs recovered 0.821623569786 (rel 4.6e-4)",
	"mesh-3x3 AO 74.1":          "work: claimed 0.821930028275 vs recovered 0.822200267734 (rel 3.3e-4)",
	"mesh-3x3 AO 74.2":          "work: claimed 0.822886676084 vs recovered 0.823052943257 (rel 2.0e-4)",
	"mesh-3x3 AO 74.3":          "work: claimed 0.819674640347 vs recovered 0.819737161239 (rel 7.6e-5)",
	"biglittle-4x4-s1 AO 61.2":  "work: claimed 0.628070011216 vs recovered 0.628097795104 (rel 4.4e-5)",
	"biglittle-8x8-s2 AO 56.75": "work: claimed 0.381401641803 vs recovered 0.381450971969 (rel 1.3e-4)",
	"biglittle-8x8-s2 AO 57":    "work: claimed 0.383466579056 vs recovered 0.383547291543 (rel 2.1e-4)",
	"biglittle-8x8-s2 AO 57.25": "work: claimed 0.385508662091 vs recovered 0.385512851717 (rel 1.1e-5)",
	"biglittle-8x8-s2 AO 59.5":  "work: claimed 0.403113128234 vs recovered 0.403152751922 (rel 9.8e-5)",
	"biglittle-8x8-s2 AO 59.75": "work: claimed 0.404958267766 vs recovered 0.405194390541 (rel 5.8e-4)",
	"biglittle-8x8-s2 AO 60":    "work: claimed 0.406816002959 vs recovered 0.407018750885 (rel 5.0e-4)",
	"biglittle-8x8-s2 PCO 57":   "work: claimed 0.383582314521 vs recovered 0.383641041543 (rel 1.5e-4)",
	"biglittle-8x8-s2 PCO 59.5": "work: claimed 0.403238128234 vs recovered 0.403277751922 (rel 9.8e-5)",
	"biglittle-8x8-s2 PCO 60":   "work: claimed 0.406937788664 vs recovered 0.40712491159 (rel 4.6e-4)",
	// "theorem-1": an AO plan is not step-up, so its period-end peak is
	// not its true peak.
	"stack-3x3x2 AO 64":   "theorem-1: dense peak exceeds the period-end value by 0.0507 K (> 0.05)",
	"stack-3x3x2 AO 64.3": "theorem-1: dense peak exceeds the period-end value by 0.0526 K (> 0.05)",
	// "peak-mismatch": the claimed peak is below the oracle's.
	"stack-3x3x2 PCO 65.1": "peak-mismatch: claimed rise 30.090058885 vs oracle 30.0901218624 (rel 2.1e-6)",
}
