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
		Stages:     int32(prog.NumPriceStages()),
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
// own machine join with per-stage skew ratios of 1.
func TestCalibratorFaithfulModel(t *testing.T) {
	m := fatTree64(t, simnet.DefaultParams())
	layout := topology.MustLayout(m.Cluster, 64, topology.BlockBunch)
	prog := ringProgram(t, 64)
	const blk = 4096

	bd, err := m.ExplainProgram(prog, layout, blk)
	if err != nil {
		t.Fatal(err)
	}
	cal := NewCalibrator(m, layout)
	for i := 0; i < 10; i++ {
		cal.ObserveExecution(prog, syntheticProfile(prog, bd, blk))
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
}

// TestCalibratorDriftOnDegradedLink: the calibrator models a healthy fat
// tree, while measurements come from a world whose network links run ~8x
// slower. The joined ratio and the per-stage skew land well above 2x, and
// the report table names the skewed program.
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
	cal := NewCalibrator(healthy, layout)
	for i := 0; i < 8; i++ {
		cal.ObserveExecution(prog, syntheticProfile(prog, measuredBd, blk))
	}

	r := cal.Report()
	if len(r.Entries) != 1 {
		t.Fatalf("report = %+v, want one entry", r.Entries)
	}
	e := r.Entries[0]
	if e.Program != "ring" || e.P != 64 || e.Samples != 8 {
		t.Fatalf("entry = %+v, want ring/64 with 8 samples", e)
	}
	if e.LastRatio <= 2 || e.MeanRatio <= 2 {
		t.Fatalf("reported ratios %g / %g, want above 2 on an 8x slower network", e.LastRatio, e.MeanRatio)
	}
	if r.Topology != cal.Topology() {
		t.Fatalf("report topology %q, want %q", r.Topology, cal.Topology())
	}
	skewed := 0
	for _, ss := range e.Stages {
		if ss.Ratio > 2 {
			skewed++
		}
	}
	if skewed == 0 {
		t.Fatalf("no per-stage skew above 2 in %+v", e.Stages)
	}
	out := r.String()
	for _, want := range []string{"ring", "calibration on topology", "stage 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report table lacks %q:\n%s", want, out)
		}
	}
}

// TestCalibratorUnpriceableProfile: a profile that cannot be joined counts
// an error instead of poisoning the aggregates.
func TestCalibratorUnpriceableProfile(t *testing.T) {
	m := fatTree64(t, simnet.DefaultParams())
	layout := topology.MustLayout(m.Cluster, 64, topology.BlockBunch)
	prog := ringProgram(t, 64)
	errs0 := calibrationErrors.Value()
	cal := NewCalibrator(m, layout)
	cal.ObserveExecution(prog, Profile{Program: "ring", P: 64, BlockBytes: 4096}) // zero measured time
	if calibrationErrors.Value() != errs0+1 {
		t.Fatalf("calibration errors %d, want %d", calibrationErrors.Value(), errs0+1)
	}
	if n := len(cal.Report().Entries); n != 0 {
		t.Fatalf("unjoinable profile produced %d report entries", n)
	}
}
