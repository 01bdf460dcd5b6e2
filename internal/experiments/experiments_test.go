package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/topology"
)

// smallSetup runs the experiment machinery at a laptop scale (256 ranks on
// the GPC model) so the unit tests stay fast; full-scale checks live in the
// -v probes and the benchmark harness.
func smallSetup(t testing.TB) *Setup {
	t.Helper()
	s, err := NewSetup(256, []int{64, 2048, 65536})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSetupErrors(t *testing.T) {
	if _, err := NewSetup(0, []int{4}); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := NewSetup(16, nil); err == nil {
		t.Error("empty sizes accepted")
	}
}

func TestMapperString(t *testing.T) {
	if MapperHeuristic.String() != "Hrstc" || MapperScotch.String() != "Scotch" || MapperNone.String() != "default" {
		t.Error("mapper strings")
	}
	if Mapper(9).String() == "" {
		t.Error("unknown mapper should format")
	}
}

func TestVariantString(t *testing.T) {
	v := Variant{MapperHeuristic, sched.InitComm}
	if v.String() != "Hrstc+initComm" {
		t.Errorf("got %q", v.String())
	}
}

func TestPatternForSize(t *testing.T) {
	if patternForSize(256, 512) != core.RecursiveDoubling {
		t.Error("small power-of-two should use recursive doubling")
	}
	if patternForSize(256, 4096) != core.Ring {
		t.Error("large should use ring")
	}
	if patternForSize(100, 512) != core.Ring {
		t.Error("non-power-of-two should fall back to ring")
	}
}

func TestFig3SmallScale(t *testing.T) {
	s := smallSetup(t)
	panels, err := Fig3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("got %d panels", len(panels))
	}
	for _, p := range panels {
		if len(p.Series) != len(Fig3Variants) {
			t.Errorf("%v: %d series", p.Layout, len(p.Series))
		}
		for name, pts := range p.Series {
			if len(pts) != len(s.Sizes) {
				t.Errorf("%v/%s: %d points", p.Layout, name, len(pts))
			}
		}
	}
	// Headline behaviours at small scale:
	// block-bunch, large message (ring already ideal): heuristic must not
	// degrade.
	bb := panels[0]
	if bb.Layout != topology.BlockBunch {
		t.Fatalf("panel order changed: %v", bb.Layout)
	}
	for _, pt := range bb.Series["Hrstc+initComm"] {
		if pt.Bytes > 1024 && pt.Improvement < -0.5 {
			t.Errorf("heuristic degraded ideal layout at %dB: %.2f%%", pt.Bytes, pt.Improvement)
		}
	}
	// cyclic-bunch, large message: heuristic must deliver a big win.
	var cyc *Panel
	for i := range panels {
		if panels[i].Layout == topology.CyclicBunch {
			cyc = &panels[i]
		}
	}
	pts := cyc.Series["Hrstc+initComm"]
	last := pts[len(pts)-1]
	if last.Improvement < 30 {
		t.Errorf("cyclic large-message improvement only %.1f%%", last.Improvement)
	}
}

func TestFig4SmallScale(t *testing.T) {
	s := smallSetup(t)
	panels, err := Fig4(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("got %d panels", len(panels))
	}
	for _, p := range panels {
		for name, pts := range p.Series {
			if len(pts) != len(s.Sizes) {
				t.Errorf("%v/%v/%s: %d points", p.Layout, p.Intra, name, len(pts))
			}
		}
	}
	// Linear intra phases leave no room at large sizes (ring inter, block
	// layout is ideal): improvements ~0.
	for _, p := range panels {
		if p.Intra != sched.Linear {
			continue
		}
		for _, pt := range p.Series["Hrstc-L+initComm"] {
			if pt.Bytes > 1024 && (pt.Improvement > 1 || pt.Improvement < -1) {
				t.Errorf("linear %v at %dB: %.2f%%, want ~0", p.Layout, pt.Bytes, pt.Improvement)
			}
		}
	}
}

func TestFig4HierarchicalLowerThanFig3(t *testing.T) {
	// Section VI-A2: "the improvements are generally lower for the
	// hierarchical algorithms". Compare the small-message heuristic gain.
	s := smallSetup(t)
	f3, err := Fig3(s)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4(s)
	if err != nil {
		t.Fatal(err)
	}
	flat := f3[0].Series["Hrstc+initComm"][0].Improvement    // block-bunch, 64B
	hier := f4[0].Series["Hrstc-NL+initComm"][0].Improvement // block-bunch NL, 64B
	if hier >= flat {
		t.Errorf("hierarchical improvement %.1f%% not lower than flat %.1f%%", hier, flat)
	}
}

func TestFig5SmallScale(t *testing.T) {
	s := smallSetup(t)
	cfg := app.Config{Procs: 256, MsgBytes: 32 * 1024, Steps: 50, ComputePerStep: 10 * 1e6}
	panels, err := Fig5(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("got %d panels", len(panels))
	}
	var bunch, cyclic float64
	for _, p := range panels {
		for _, r := range p.Results {
			if r.Normalized <= 0 {
				t.Errorf("%v/%s: non-positive normalised time", p.Layout, r.Variant)
			}
			if r.Variant == "Hrstc" {
				switch p.Layout {
				case topology.BlockBunch:
					bunch = r.Normalized
				case topology.CyclicBunch:
					cyclic = r.Normalized
				}
			}
		}
	}
	if cyclic >= bunch {
		t.Errorf("cyclic repair (%.3f) should beat block-bunch no-op (%.3f)", cyclic, bunch)
	}
}

func TestFig6SmallScale(t *testing.T) {
	s := smallSetup(t)
	cfg := app.Config{Procs: 256, MsgBytes: 32 * 1024, Steps: 50, ComputePerStep: 10 * 1e6}
	panels, err := Fig6(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("got %d panels", len(panels))
	}
	for _, p := range panels {
		if len(p.Results) != 2 {
			t.Errorf("%v/%v: %d results", p.Layout, p.Intra, len(p.Results))
		}
	}
}

// TestFiguresShareSetup runs Fig6 and Fig4 concurrently on one Setup whose
// P differs from Fig6's process count. The drivers only read the Setup, so
// under -race neither sees the other, and Fig4 equals a run on its own.
func TestFiguresShareSetup(t *testing.T) {
	s, err := NewSetup(64, []int{64, 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := app.Config{Procs: 128, MsgBytes: 4096, Steps: 5, ComputePerStep: 1e6}
	var f4 []Fig4Panel
	var err4, err6 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); f4, err4 = Fig4(s) }()
	go func() { defer wg.Done(); _, err6 = Fig6(s, cfg) }()
	wg.Wait()
	if err4 != nil || err6 != nil {
		t.Fatalf("Fig4: %v, Fig6: %v", err4, err6)
	}
	if s.P != 64 {
		t.Fatalf("Setup.P = %d after the run, want 64", s.P)
	}
	alone, err := Fig4(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f4, alone) {
		t.Errorf("Fig4 beside Fig6 differs from Fig4 alone:\n%v\n%v", f4, alone)
	}
}

func TestFig6RejectsBadConfig(t *testing.T) {
	s := smallSetup(t)
	if _, err := Fig6(s, app.Config{}); err == nil {
		t.Error("invalid app config accepted")
	}
	if _, err := Fig5(s, app.Config{Procs: -1}); err == nil {
		t.Error("invalid app config accepted by Fig5")
	}
}

func TestFig7SmallReps(t *testing.T) {
	s := smallSetup(t)
	rows, err := Fig7(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig7Procs) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Discovery <= 0 || r.Heuristic <= 0 || r.Scotch <= 0 {
			t.Errorf("row %d has non-positive overheads: %+v", i, r)
		}
		if r.Heuristic >= r.Scotch {
			t.Errorf("p=%d: heuristic overhead %v not below scotch %v", r.Procs, r.Heuristic, r.Scotch)
		}
	}
	// Discovery grows linearly.
	if rows[2].Discovery < rows[0].Discovery*3 {
		t.Errorf("discovery not scaling: %v vs %v", rows[0].Discovery, rows[2].Discovery)
	}
	if _, err := Fig7(s, 0); err == nil {
		t.Error("reps=0 accepted")
	}
}

func TestTimeMappingUnknown(t *testing.T) {
	s := smallSetup(t)
	layout := topology.MustLayout(s.Machine.Cluster, 16, topology.BlockBunch)
	d, err := s.distancesForLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := timeMapping(Mapper(42), core.Ring, d); err == nil {
		t.Error("unknown mapper accepted")
	}
	if v, err := timeMapping(MapperNone, core.Ring, d); err != nil || v < 0 {
		t.Errorf("MapperNone: %v %v", v, err)
	}
}

func TestMappingForUnknown(t *testing.T) {
	s := smallSetup(t)
	layout := topology.MustLayout(s.Machine.Cluster, 16, topology.BlockBunch)
	d, _ := s.distancesForLayout(layout)
	if _, err := mappingFor(Mapper(42), core.Ring, d); err == nil {
		t.Error("unknown mapper accepted")
	}
	m, err := mappingFor(MapperNone, core.Ring, d)
	if err != nil || !m.IsIdentity() {
		t.Error("MapperNone should be identity")
	}
}

func TestCompositeMappingIsPermutation(t *testing.T) {
	s := smallSetup(t)
	h, err := s.newHierPricer(topology.BlockScatter, sched.NonLinear, s.P)
	if err != nil {
		t.Fatal(err)
	}
	gather, _, leader, err := h.mappings(s.Machine.Cluster, MapperHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	comp := h.compositeMapping(gather, leader[core.Ring])
	if err := comp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(comp) != s.P {
		t.Errorf("composite mapping over %d ranks", len(comp))
	}
}

func TestRenderOutputs(t *testing.T) {
	s := smallSetup(t)
	f3, err := Fig3(s)
	if err != nil {
		t.Fatal(err)
	}
	text := RenderPanels("Figure 3", panelsAsRender(f3))
	for _, want := range []string{"Figure 3", "block-bunch", "Hrstc+initComm", "64B"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
	rows, err := Fig7(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := RenderOverheads(rows)
	if !strings.Contains(o, "4096") || !strings.Contains(o, "Scotch") {
		t.Errorf("overhead render incomplete:\n%s", o)
	}
}

func panelsAsRender(ps []Panel) []RenderPanel {
	var out []RenderPanel
	for _, p := range ps {
		out = append(out, RenderPanel{Title: p.Layout.String(), Series: p.Series})
	}
	return out
}
