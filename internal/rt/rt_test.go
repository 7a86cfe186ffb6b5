package rt

import (
	"math"
	"testing"
)

func TestTaskValidate(t *testing.T) {
	if err := (Task{Name: "a", WCET: 1, Period: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Task{Name: "b", WCET: 0, Period: 10}).Validate(); err == nil {
		t.Fatal("zero WCET must error")
	}
	if err := (Task{Name: "c", WCET: 1, Period: -1}).Validate(); err == nil {
		t.Fatal("negative period must error")
	}
	u := Task{WCET: 2, Period: 8}.Utilization()
	if u != 0.25 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestAdmissible(t *testing.T) {
	part := &Partition{TaskCore: []int{0, 1}, CoreUtil: []float64{0.8, 0.5}}
	adm, err := Admissible(part, []float64{0.9, 0.6}, 2e-3, 50e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Admissible || !adm.FluidOK {
		t.Fatalf("should admit: %+v", adm)
	}
	if math.Abs(adm.Margins[0]-0.1) > 1e-12 {
		t.Fatalf("margin = %v", adm.Margins[0])
	}
	// Overloaded core.
	adm, err = Admissible(part, []float64{0.7, 0.6}, 2e-3, 50e-3)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admissible {
		t.Fatal("overload must be rejected")
	}
	// Fluid approximation violated: oscillation cycle near task period.
	adm, err = Admissible(part, []float64{0.9, 0.6}, 20e-3, 50e-3)
	if err != nil {
		t.Fatal(err)
	}
	if adm.FluidOK || adm.Admissible {
		t.Fatal("slow oscillation must fail the fluid check")
	}
	if _, err := Admissible(part, []float64{1}, 0, 0); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestPartitionBySpeeds(t *testing.T) {
	tasks := []Task{
		{Name: "a", WCET: 6, Period: 10}, // 0.6
		{Name: "b", WCET: 5, Period: 10}, // 0.5
		{Name: "c", WCET: 4, Period: 10}, // 0.4
	}
	// Core 1 is off: nothing may land there while core 0 and 2 have room.
	speeds := []float64{1.3, 0, 1.3}
	part, err := PartitionBySpeeds(tasks, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if part.CoreUtil[1] != 0 {
		t.Fatalf("off core received load: %v", part.CoreUtil)
	}
	adm, err := Admissible(part, speeds, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Admissible {
		t.Fatalf("should admit onto the two fast cores: %+v", adm)
	}
	// Overload: best-effort placement with negative margins, not an error.
	heavy := []Task{
		{Name: "x", WCET: 12, Period: 10},
		{Name: "y", WCET: 12, Period: 10},
		{Name: "z", WCET: 12, Period: 10},
	}
	part, err = PartitionBySpeeds(heavy, speeds)
	if err != nil {
		t.Fatal(err)
	}
	adm, err = Admissible(part, speeds, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admissible {
		t.Fatal("overload must not be admissible")
	}
	// Errors.
	if _, err := PartitionBySpeeds(tasks, nil); err == nil {
		t.Fatal("no cores must error")
	}
	if _, err := PartitionBySpeeds([]Task{{WCET: -1, Period: 1}}, speeds); err == nil {
		t.Fatal("invalid task must error")
	}
}

func TestHelpers(t *testing.T) {
	tasks := []Task{{WCET: 1, Period: 4}, {WCET: 1, Period: 2}}
	if MinPeriod(tasks) != 2 {
		t.Fatalf("MinPeriod = %v", MinPeriod(tasks))
	}
	if MinPeriod(nil) != 0 {
		t.Fatal("empty MinPeriod should be 0")
	}
	if math.Abs(TotalUtilization(tasks)-0.75) > 1e-12 {
		t.Fatalf("TotalUtilization = %v", TotalUtilization(tasks))
	}
}
