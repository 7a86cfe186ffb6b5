package rt

import (
	"fmt"
	"math"
	"sort"
)

// SpeedSeg is one stretch of a core's periodic speed profile.
type SpeedSeg struct {
	Length float64 // seconds
	Speed  float64 // work units per second (0 while off or stalled)
}

// EDFResult summarizes a job-level EDF simulation.
type EDFResult struct {
	JobsReleased  int
	JobsCompleted int
	DeadlineMiss  int
	// MaxLatenessS is the largest completion lateness observed among
	// COMPLETED jobs (missed jobs are dropped and counted in
	// DeadlineMiss).
	MaxLatenessS float64
	// WorkDone is the total work units completed.
	WorkDone float64
}

// nsPerSec converts the simulator's integer-nanosecond timeline. All
// event arithmetic is integral, so the event loop provably advances — a
// float timeline invites epsilon-sized spins when completions, releases
// and segment boundaries coincide.
const nsPerSec = 1e9

// SimulateEDF runs earliest-deadline-first on ONE core whose speed follows
// the given periodic profile, releasing every task synchronously at t = 0
// (the critical instant) and repeating for the horizon. A job that reaches
// its deadline unfinished counts as a miss and is dropped (its remaining
// demand disappears — the optimistic convention, so a single reported miss
// is trustworthy evidence of overload).
//
// This is the executable check behind the fluid-EDF admission test: a
// partition admitted by Admissible must simulate without misses, while
// demand exceeding the profile's mean speed must eventually miss.
func SimulateEDF(tasks []Task, profile []SpeedSeg, horizon float64) (*EDFResult, error) {
	if len(tasks) == 0 {
		return &EDFResult{}, nil
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("rt: non-positive horizon %v", horizon)
	}
	// Integerize the profile.
	var segNS []int64
	var speeds []float64
	var periodNS int64
	for _, s := range profile {
		if s.Length < 0 || s.Speed < 0 || math.IsNaN(s.Length) || math.IsNaN(s.Speed) {
			return nil, fmt.Errorf("rt: invalid speed segment %+v", s)
		}
		ns := int64(math.Round(s.Length * nsPerSec))
		if ns == 0 {
			continue
		}
		segNS = append(segNS, ns)
		speeds = append(speeds, s.Speed)
		periodNS += ns
	}
	if periodNS <= 0 {
		return nil, fmt.Errorf("rt: empty speed profile")
	}
	taskPeriodNS := make([]int64, len(tasks))
	for i, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		taskPeriodNS[i] = int64(math.Round(t.Period * nsPerSec))
		if taskPeriodNS[i] <= 0 {
			return nil, fmt.Errorf("rt: task %q period too small to resolve", t.Name)
		}
	}
	horizonNS := int64(math.Round(horizon * nsPerSec))

	// speedAt returns the current segment's speed and its absolute end.
	segStart := make([]int64, len(segNS)+1)
	for i, ns := range segNS {
		segStart[i+1] = segStart[i] + ns
	}
	speedAt := func(now int64) (float64, int64) {
		off := now % periodNS
		base := now - off
		idx := sort.Search(len(segNS), func(i int) bool { return segStart[i+1] > off })
		return speeds[idx], base + segStart[idx+1]
	}

	type job struct {
		deadline int64
		remain   float64
	}
	res := &EDFResult{}
	var ready []job
	nextRelease := make([]int64, len(tasks))

	var now int64
	for now < horizonNS {
		// Release due jobs.
		for i := range tasks {
			for nextRelease[i] <= now && nextRelease[i] < horizonNS {
				ready = append(ready, job{
					deadline: nextRelease[i] + taskPeriodNS[i],
					remain:   tasks[i].WCET,
				})
				res.JobsReleased++
				nextRelease[i] += taskPeriodNS[i]
			}
		}
		// Drop expired jobs.
		kept := ready[:0]
		for _, j := range ready {
			if j.deadline <= now && j.remain > 0 {
				res.DeadlineMiss++
				continue
			}
			kept = append(kept, j)
		}
		ready = kept

		// Next event: release, segment boundary, running job's deadline
		// or completion.
		next := horizonNS
		for i := range tasks {
			if nextRelease[i] > now && nextRelease[i] < next {
				next = nextRelease[i]
			}
		}
		speed, segEnd := speedAt(now)
		if segEnd < next {
			next = segEnd
		}
		if len(ready) == 0 {
			now = next
			continue
		}
		sort.SliceStable(ready, func(a, b int) bool { return ready[a].deadline < ready[b].deadline })
		j := &ready[0]
		if j.deadline > now && j.deadline < next {
			next = j.deadline
		}
		dt := next - now
		if dt <= 0 {
			// Only possible when j.deadline == now, handled by the drop
			// pass on the next iteration; force progress by one tick.
			now++
			continue
		}
		if speed > 0 {
			finishNS := int64(math.Ceil(j.remain / speed * nsPerSec))
			if finishNS <= dt {
				if finishNS < 1 {
					finishNS = 1
				}
				now += finishNS
				res.JobsCompleted++
				res.WorkDone += j.remain
				if late := float64(now-j.deadline) / nsPerSec; late > res.MaxLatenessS {
					res.MaxLatenessS = late
				}
				ready = ready[1:]
				continue
			}
			j.remain -= speed * float64(dt) / nsPerSec
			res.WorkDone += speed * float64(dt) / nsPerSec
		}
		now = next
	}
	return res, nil
}
