package obs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// syntheticProfile builds the profile a perfectly model-faithful execution
// of prog would produce under breakdown bd: each non-Pre pricing stage
// contributes Seconds×Repeat to its bin. It feeds a calibrator
// measurements taken from a differently-parameterised machine.
func syntheticProfile(prog *sched.Program, bd *simnet.Breakdown, blockBytes int) Profile {
	p := Profile{
		Program:    prog.Name,
		P:          int32(prog.P),
		Blocks:     int32(prog.Blocks),
		BlockBytes: int32(blockBytes),
		Stages:     int32(len(prog.Stages)),
	}
	for i, st := range bd.Stages {
		if st.Pre {
			continue
		}
		p.AddStage(i, st.Seconds*float64(st.Repeat))
		p.Transfers += int64(st.Transfers)
		p.Bytes += st.BytesMoved * int64(st.Repeat)
	}
	return p
}

// fatTree64 is the acceptance-point machine: 8 nodes x 2 sockets x 4 cores
// under a two-level fat tree, 64 ranks, with params p.
func fatTree64(t testing.TB, params simnet.Params) *simnet.Machine {
	t.Helper()
	c, err := topology.NewCluster(8, 2, 4, topology.TwoLevelFatTree(2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := simnet.NewMachine(c, params)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func ringProgram(t testing.TB, p int) *sched.Program {
	t.Helper()
	s, err := sched.Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sched.CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCalibratorFaithfulModel: profiles synthesized from the calibrator's
// own machine join with per-stage skew ratios of 1 and never drift.
func TestCalibratorFaithfulModel(t *testing.T) {
	m := fatTree64(t, simnet.DefaultParams())
	layout := topology.MustLayout(m.Cluster, 64, topology.BlockBunch)
	prog := ringProgram(t, 64)
	const blk = 4096

	bd, err := m.ExplainProgram(prog, layout, blk)
	if err != nil {
		t.Fatal(err)
	}
	var fired []DriftEvent
	cal := NewCalibrator(m, layout, Options{Window: 4, Band: 1.5,
		OnDrift: func(e DriftEvent) { fired = append(fired, e) }})
	for i := 0; i < 10; i++ {
		cal.ObserveExecution(prog, syntheticProfile(prog, bd, blk))
	}
	if len(fired) != 0 || cal.Drifts() != 0 {
		t.Fatalf("faithful model fired drift %d times (%v)", len(fired), fired)
	}
	r := cal.Report()
	if len(r.Entries) != 1 {
		t.Fatalf("report holds %d entries, want 1: %+v", len(r.Entries), r.Entries)
	}
	e := r.Entries[0]
	if e.Program != "ring" || e.P != 64 || e.Samples != 10 {
		t.Fatalf("entry = %+v, want ring/64 with 10 samples", e)
	}
	if math.Abs(e.LastRatio-1) > 1e-9 || math.Abs(e.MeanRatio-1) > 1e-9 {
		t.Fatalf("ratios = %g / %g, want 1 for a faithful model", e.LastRatio, e.MeanRatio)
	}
	if math.Abs(e.BetaRatio-1) > 1e-6 || math.Abs(e.AlphaResid) > 1e-9 {
		t.Fatalf("fit alpha=%g beta=%g, want 0 / 1", e.AlphaResid, e.BetaRatio)
	}
	if len(e.Stages) == 0 {
		t.Fatal("entry carries no per-stage skew")
	}
	for _, ss := range e.Stages {
		if ss.Predicted <= 0 || math.Abs(ss.Ratio-1) > 1e-9 {
			t.Fatalf("stage %d skew = %+v, want ratio 1", ss.Index, ss)
		}
	}
	if e.Drifting {
		t.Fatal("faithful entry marked drifting")
	}
}

// TestCalibratorDriftOnDegradedLink is the tentpole acceptance scenario: the
// calibrator models a healthy fat tree, while measurements come from a world
// whose network links run ~8x slower. Skew stays far outside the band, the
// detector fires exactly once (hysteresis), and the report names the
// per-stage skew.
func TestCalibratorDriftOnDegradedLink(t *testing.T) {
	healthy := fatTree64(t, simnet.DefaultParams())
	degradedParams := simnet.DefaultParams()
	degradedParams.StreamNet /= 8
	degradedParams.CapNetPerCable /= 8
	degraded := fatTree64(t, degradedParams)

	layout := topology.MustLayout(healthy.Cluster, 64, topology.BlockBunch)
	prog := ringProgram(t, 64)
	const blk = 65536 // bandwidth-dominated so the degraded links show

	measuredBd, err := degraded.ExplainProgram(prog, layout, blk)
	if err != nil {
		t.Fatal(err)
	}
	var fired []DriftEvent
	cal := NewCalibrator(healthy, layout, Options{Window: 4, Band: 1.5,
		OnDrift: func(e DriftEvent) { fired = append(fired, e) }})
	for i := 0; i < 12; i++ {
		cal.ObserveExecution(prog, syntheticProfile(prog, measuredBd, blk))
	}
	if len(fired) != 1 {
		t.Fatalf("drift fired %d times, want exactly 1 (latched after firing): %+v", len(fired), fired)
	}
	ev := fired[0]
	if ev.Program != "ring" || ev.P != 64 || ev.Ratio <= 1.5 {
		t.Fatalf("drift event = %+v, want ring/64 with ratio above the band", ev)
	}
	if ev.Topology != cal.Topology() {
		t.Fatalf("drift event topology %q, want %q", ev.Topology, cal.Topology())
	}
	if cal.Drifts() != 1 {
		t.Fatalf("Drifts() = %d, want 1", cal.Drifts())
	}

	r := cal.Report()
	if len(r.Entries) != 1 || !r.Entries[0].Drifting {
		t.Fatalf("report = %+v, want one drifting entry", r.Entries)
	}
	e := r.Entries[0]
	if e.LastRatio <= 1.5 {
		t.Fatalf("reported ratio %g, want outside band 1.5", e.LastRatio)
	}
	skewed := 0
	for _, ss := range e.Stages {
		if ss.Ratio > 1.5 {
			skewed++
		}
	}
	if skewed == 0 {
		t.Fatalf("no per-stage skew above the band in %+v", e.Stages)
	}
	out := r.String()
	for _, want := range []string{"ring", "YES", "calibration on topology"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report table lacks %q:\n%s", want, out)
		}
	}

	// Recovery: in-band measurements release the latch so a later
	// degradation can fire again.
	goodBd, err := healthy.ExplainProgram(prog, layout, blk)
	if err != nil {
		t.Fatal(err)
	}
	cal.ObserveExecution(prog, syntheticProfile(prog, goodBd, blk))
	for i := 0; i < 6; i++ {
		cal.ObserveExecution(prog, syntheticProfile(prog, measuredBd, blk))
	}
	if len(fired) != 2 {
		t.Fatalf("drift fired %d times after recovery + re-degradation, want 2", len(fired))
	}
}

// TestCalibratorUnpriceableProfile: a profile that cannot be joined counts
// an error instead of poisoning the aggregates.
func TestCalibratorUnpriceableProfile(t *testing.T) {
	m := fatTree64(t, simnet.DefaultParams())
	layout := topology.MustLayout(m.Cluster, 64, topology.BlockBunch)
	prog := ringProgram(t, 64)
	errs0 := calibrationErrors.Value()
	cal := NewCalibrator(m, layout, Options{})
	cal.ObserveExecution(prog, Profile{Program: "ring", P: 64, BlockBytes: 4096}) // zero measured time
	if calibrationErrors.Value() != errs0+1 {
		t.Fatalf("calibration errors %d, want %d", calibrationErrors.Value(), errs0+1)
	}
	if n := len(cal.Report().Entries); n != 0 {
		t.Fatalf("unjoinable profile produced %d report entries", n)
	}
}
