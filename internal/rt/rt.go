// Package rt layers a periodic hard real-time task model over the
// thermal schedulers: given implicit-deadline tasks (WCET at unit speed,
// period), it partitions them onto cores and decides admissibility
// against the sustained per-core speeds a thermally-constrained schedule
// provides. This is the workload model behind the paper's framing (its
// antecedents [2], [25], [30] are all periodic real-time scheduling
// papers): a task set is thermally schedulable iff some peak-temperature-
// feasible schedule sustains every core's required utilization.
//
// Speed semantics: a core running the paper's two-mode oscillation at
// mean speed s completes s units of work per unit time; with the
// oscillation cycle (milliseconds) far below task periods (tens of
// milliseconds and up), EDF on the oscillating core behaves as EDF on a
// uniform speed-s processor, which schedules any implicit-deadline task
// set with utilization ≤ s. The admission test therefore compares
// per-core utilization against the plan's per-core mean speed, with the
// fluid approximation guarded by a cycle-vs-period ratio check.
package rt

import (
	"errors"
	"fmt"
	"sort"
)

// Task is a periodic implicit-deadline hard real-time task.
type Task struct {
	Name string
	// WCET is the worst-case execution time in seconds when running at
	// unit speed (the paper's normalized speed 1.0).
	WCET float64
	// Period is the activation period (= relative deadline) in seconds.
	Period float64
}

// Utilization returns WCET/Period, the fraction of a unit-speed core the
// task consumes.
func (t Task) Utilization() float64 { return t.WCET / t.Period }

// Validate checks the task parameters.
func (t Task) Validate() error {
	if t.WCET <= 0 {
		return fmt.Errorf("rt: task %q has non-positive WCET %v", t.Name, t.WCET)
	}
	if t.Period <= 0 {
		return fmt.Errorf("rt: task %q has non-positive period %v", t.Name, t.Period)
	}
	return nil
}

// Partition assigns each task to one core.
type Partition struct {
	// TaskCore[i] is the core index of task i.
	TaskCore []int
	// CoreUtil[c] is the summed utilization on core c.
	CoreUtil []float64
}

// PartitionBySpeeds places tasks (worst-fit decreasing) onto cores with
// HETEROGENEOUS sustained speeds: each task goes to the core with the
// largest remaining speed margin, so off or throttled cores (an EXS
// assignment may shut cores down entirely) are only used when they can
// actually carry load. The partition is best-effort: if the set does not
// fit, it is still returned with overloaded cores, and Admissible reports
// the negative margins.
func PartitionBySpeeds(tasks []Task, speeds []float64) (*Partition, error) {
	if len(speeds) == 0 {
		return nil, errors.New("rt: no cores")
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Utilization() > tasks[order[b]].Utilization()
	})
	part := &Partition{
		TaskCore: make([]int, len(tasks)),
		CoreUtil: make([]float64, len(speeds)),
	}
	for _, ti := range order {
		best := 0
		bestMargin := speeds[0] - part.CoreUtil[0]
		for c := 1; c < len(speeds); c++ {
			if m := speeds[c] - part.CoreUtil[c]; m > bestMargin {
				best, bestMargin = c, m
			}
		}
		part.TaskCore[ti] = best
		part.CoreUtil[best] += tasks[ti].Utilization()
	}
	return part, nil
}

// Admission is the outcome of an admissibility test.
type Admission struct {
	Admissible bool
	// Margins[c] = coreSpeeds[c] − CoreUtil[c]; negative entries identify
	// the overloaded cores.
	Margins []float64
	// FluidOK reports whether the oscillation-cycle / shortest-period
	// ratio supports the fluid (uniform-speed) approximation.
	FluidOK bool
}

// fluidRatio is the largest acceptable oscillation-cycle to task-period
// ratio for the uniform-speed approximation; one tenth keeps per-job
// speed variation under a few percent of the job's window.
const fluidRatio = 0.1

// Admissible tests EDF admissibility of the partition against sustained
// per-core speeds. cycleS is the speed pattern's period (0 for constant
// schedules); minPeriod the shortest task period.
func Admissible(part *Partition, coreSpeeds []float64, cycleS, minPeriod float64) (*Admission, error) {
	if len(coreSpeeds) != len(part.CoreUtil) {
		return nil, fmt.Errorf("rt: %d core speeds for %d cores", len(coreSpeeds), len(part.CoreUtil))
	}
	adm := &Admission{
		Admissible: true,
		Margins:    make([]float64, len(coreSpeeds)),
		FluidOK:    cycleS <= 0 || minPeriod <= 0 || cycleS <= fluidRatio*minPeriod,
	}
	for c, u := range part.CoreUtil {
		adm.Margins[c] = coreSpeeds[c] - u
		if adm.Margins[c] < -1e-12 {
			adm.Admissible = false
		}
	}
	if !adm.FluidOK {
		adm.Admissible = false
	}
	return adm, nil
}

// MinPeriod returns the shortest period in the task set (0 for an empty
// set).
func MinPeriod(tasks []Task) float64 {
	if len(tasks) == 0 {
		return 0
	}
	m := tasks[0].Period
	for _, t := range tasks[1:] {
		if t.Period < m {
			m = t.Period
		}
	}
	return m
}
