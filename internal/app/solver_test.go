package app

import (
	"math"
	"testing"
	"time"
)

func TestSolverValidate(t *testing.T) {
	good := SolverConfig{Procs: 4, Iterations: 2, DotElems: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SolverConfig{
		{Procs: 0, Iterations: 1, DotElems: 1},
		{Procs: 1, Iterations: 0, DotElems: 1},
		{Procs: 1, Iterations: 1, DotElems: 0},
		{Procs: 1, Iterations: 1, DotElems: 1, ComputePerIter: -time.Second},
		{Procs: 4, Iterations: 1, DotElems: 1, Hierarchical: true}, // missing NodeOf
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSolverRunsFlatAndHierarchical(t *testing.T) {
	flat := SolverConfig{Procs: 8, Iterations: 3, DotElems: 4}
	r1, err := RunSolver(flat)
	if err != nil {
		t.Fatal(err)
	}
	hier := flat
	hier.Hierarchical = true
	hier.NodeOf = func(w int) int { return w / 4 }
	r2, err := RunSolver(hier)
	if err != nil {
		t.Fatal(err)
	}
	// Both paths compute the same reductions, so the pseudo-residuals
	// agree (up to FP association order; the values are sums of identical
	// operands so tolerance is loose).
	if math.IsNaN(r1.Residual) || math.IsNaN(r2.Residual) {
		t.Fatalf("residuals NaN: %v %v", r1.Residual, r2.Residual)
	}
	if diff := math.Abs(r1.Residual - r2.Residual); diff > 1e-9*math.Abs(r1.Residual)+1e-12 {
		t.Errorf("flat (%g) and hierarchical (%g) residuals diverge", r1.Residual, r2.Residual)
	}
	if r1.Elapsed <= 0 || r2.Elapsed <= 0 {
		t.Error("missing timings")
	}
}

func TestSolverRejectsInvalid(t *testing.T) {
	if _, err := RunSolver(SolverConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
}
