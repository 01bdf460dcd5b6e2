package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/osu"
	"repro/internal/sched"
	"repro/internal/topology"
)

// update regenerates testdata/paper_golden.json from the code under test.
// The committed file was generated before the figure drivers moved onto
// price profiles; regenerate only when a change is MEANT to move a figure.
var update = flag.Bool("update", false, "rewrite testdata/paper_golden.json")

const (
	paperGoldenPath = "testdata/paper_golden.json"
	paperProcs      = 4096
)

// The golden holds every modelled value at paper scale, keyed by
// figure/panel/series/size: every Fig. 3 and Fig. 4 point on GPC at
// p = 4096 over the 17 OSU sizes, every Sensitivity row at the same scale,
// and one AdaptivePolicy sweep (recursive doubling, RDMH, cyclic-bunch,
// initComm). Figs. 5 and 6 fold in measured mapping wall time and stay out.
// Each section is computed and checked by its own test.

func paperSetup(t *testing.T) *Setup {
	t.Helper()
	s, err := NewSetup(paperProcs, osu.DefaultSizes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fig3Values computes the golden's "fig3/" section.
func fig3Values(t *testing.T, s *Setup) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	f3, err := Fig3(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range f3 {
		for name, pts := range panel.Series {
			for _, pt := range pts {
				out[fmt.Sprintf("fig3/%v/%s/%d", panel.Layout, name, pt.Bytes)] = pt.Improvement
			}
		}
	}
	return out
}

// fig4Values computes the golden's "fig4/" section.
func fig4Values(t *testing.T, s *Setup) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	f4, err := Fig4(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range f4 {
		for name, pts := range panel.Series {
			for _, pt := range pts {
				out[fmt.Sprintf("fig4/%v/%v/%s/%d", panel.Layout, panel.Intra, name, pt.Bytes)] = pt.Improvement
			}
		}
	}
	return out
}

// modelValues computes the golden's "sensitivity/" and "adaptive/" sections.
func modelValues(t *testing.T, s *Setup) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	rows, err := Sensitivity(paperProcs, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		key := fmt.Sprintf("sensitivity/%s/x%g/", r.Param, r.Scale)
		out[key+"cyclic-ring"] = r.CyclicRing
		out[key+"ideal-ring"] = r.IdealRing
		out[key+"block-rd"] = r.BlockRD
	}
	layout := topology.MustLayout(s.Machine.Cluster, paperProcs, topology.CyclicBunch)
	d, err := s.distancesForLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.RDMH(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	decisions, err := AdaptivePolicy(s, layout, m, core.RecursiveDoubling, sched.InitComm, s.Sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range decisions {
		if dc.UseReordered != (dc.Reordered < dc.Default) {
			t.Errorf("adaptive %d B: decision %+v contradicts its prices", dc.Bytes, dc)
		}
		out[fmt.Sprintf("adaptive/%d/default", dc.Bytes)] = dc.Default
		out[fmt.Sprintf("adaptive/%d/reordered", dc.Bytes)] = dc.Reordered
	}
	return out
}

// checkGolden compares got with the golden's keys under the given prefixes:
// every value must equal the checked-in one with == (JSON round-trips
// float64 bit for bit), and no value may appear or vanish.
func checkGolden(t *testing.T, got map[string]float64, prefixes ...string) {
	t.Helper()
	blob, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]float64
	if err := json.Unmarshal(blob, &all); err != nil {
		t.Fatal(err)
	}
	inSection := func(k string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				return true
			}
		}
		return false
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		if inSection(k) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		t.Fatalf("golden has no values under %q", prefixes)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: missing, golden has %.17g", k, all[k])
		case g != all[k]:
			t.Errorf("%s: got %.17g, golden has %.17g", k, g, all[k])
		}
	}
	for k := range got {
		if _, ok := all[k]; !ok || !inSection(k) {
			t.Errorf("%s: computed %.17g, not in the golden's %q sections", k, got[k], prefixes)
		}
	}
}

// TestFig3Probe pins every Fig. 3 point on GPC at p = 4096 to the golden.
func TestFig3Probe(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale probe")
	}
	if *update {
		t.Skip("TestPaperGolden rewrites the golden")
	}
	checkGolden(t, fig3Values(t, paperSetup(t)), "fig3/")
}

// TestFig4Probe pins every Fig. 4 point on GPC at p = 4096 to the golden.
func TestFig4Probe(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale probe")
	}
	if *update {
		t.Skip("TestPaperGolden rewrites the golden")
	}
	checkGolden(t, fig4Values(t, paperSetup(t)), "fig4/")
}

// TestPaperGolden pins the Sensitivity rows and the AdaptivePolicy sweep at
// paper scale; with -update it recomputes every section and rewrites the
// golden.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale figures at p = 4096")
	}
	s := paperSetup(t)
	if !*update {
		checkGolden(t, modelValues(t, s), "sensitivity/", "adaptive/")
		return
	}
	got := modelValues(t, s)
	for _, section := range []map[string]float64{fig3Values(t, s), fig4Values(t, s)} {
		for k, v := range section {
			got[k] = v
		}
	}
	blob, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(paperGoldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paperGoldenPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d values to %s", len(got), paperGoldenPath)
}
