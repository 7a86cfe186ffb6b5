package thermosc

import (
	"fmt"

	"thermosc/internal/power"
	"thermosc/internal/thermal"
)

// config carries the adjustable pieces of a Platform under construction.
type config struct {
	coreEdge    float64
	pkg         thermal.PackageParams
	pwr         power.Model
	levels      *power.LevelSet
	overhead    power.TransitionOverhead
	period      float64
	coreLevel   *thermal.CoreLevelParams
	stackLayers int
	coreScales  []float64
	// convectionSet records an explicit WithConvectionR: it disables the
	// automatic package scaling New applies to >16-core platforms.
	convectionSet bool
}

// Option adjusts platform construction.
type Option func(*config) error

// WithVoltageLevels restricts the DVFS modes to the given supply voltages
// (volts; at least one positive value).
func WithVoltageLevels(volts ...float64) Option {
	return func(c *config) error {
		ls, err := power.NewLevelSet(volts...)
		if err != nil {
			return err
		}
		c.levels = ls
		return nil
	}
}

// WithPaperLevels selects the paper's Table IV level set for
// n ∈ {2, 3, 4, 5}.
func WithPaperLevels(n int) Option {
	return func(c *config) error {
		ls, err := power.PaperLevels(n)
		if err != nil {
			return err
		}
		c.levels = ls
		return nil
	}
}

// WithTransitionOverhead sets the DVFS transition stall τ in seconds
// (0 disables overhead modeling).
func WithTransitionOverhead(tauSeconds float64) Option {
	return func(c *config) error {
		if tauSeconds < 0 {
			return fmt.Errorf("thermosc: negative transition overhead %v", tauSeconds)
		}
		c.overhead = power.TransitionOverhead{Tau: tauSeconds}
		return nil
	}
}

// WithBasePeriod sets the schedule period t_p in seconds (default 20 ms).
func WithBasePeriod(seconds float64) Option {
	return func(c *config) error {
		if seconds <= 0 {
			return fmt.Errorf("thermosc: non-positive base period %v", seconds)
		}
		c.period = seconds
		return nil
	}
}

// WithAmbientC sets the ambient temperature in °C (default 35 °C).
func WithAmbientC(ambient float64) Option {
	return func(c *config) error {
		c.pkg.AmbientC = ambient
		return nil
	}
}

// WithCoreEdge sets the core side length in meters (default 4 mm).
func WithCoreEdge(meters float64) Option {
	return func(c *config) error {
		if meters <= 0 {
			return fmt.Errorf("thermosc: non-positive core edge %v", meters)
		}
		c.coreEdge = meters
		return nil
	}
}

// WithConvectionR scales the heat sink's convection resistance (K/W) —
// the single most effective knob for making a platform thermally tighter
// or looser.
func WithConvectionR(rKPerW float64) Option {
	return func(c *config) error {
		if rKPerW <= 0 {
			return fmt.Errorf("thermosc: non-positive convection resistance %v", rKPerW)
		}
		c.pkg.ConvectionR = rKPerW
		c.convectionSet = true
		return nil
	}
}

// WithCoreLevelModel switches to the simplified single-node-per-core
// thermal model (the model class the paper's proofs assume exactly) with
// the repository's default parameters.
func WithCoreLevelModel() Option {
	return func(c *config) error {
		cl := thermal.DefaultCoreLevel()
		c.coreLevel = &cl
		return nil
	}
}

// WithCoreScales declares a heterogeneous platform: core i consumes
// scales[i] times the reference power at any voltage (big/LITTLE designs,
// process skew). Length must equal the total core count — rows×cols on a
// planar chip, layers×rows×cols (layer-major) with WithStackedLayers; all
// entries positive. The core-level model does not support heterogeneity.
func WithCoreScales(scales ...float64) Option {
	return func(c *config) error {
		if len(scales) == 0 {
			return fmt.Errorf("thermosc: empty core scales")
		}
		c.coreScales = append([]float64(nil), scales...)
		return nil
	}
}

// WithStackedLayers builds a 3D stack: the rows×cols floorplan is
// repeated in `layers` vertically bonded die layers (layer 0 next to the
// heat sink), so the platform has layers × rows × cols cores. Core
// indices are layer-major. layers must be ≥ 1; 1 is the planar model.
func WithStackedLayers(layers int) Option {
	return func(c *config) error {
		if layers < 1 {
			return fmt.Errorf("thermosc: invalid layer count %d", layers)
		}
		c.stackLayers = layers
		return nil
	}
}
