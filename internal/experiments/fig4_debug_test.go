package experiments

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/topology"
)

// TestFig4PhaseBreakdown prints per-phase costs for debugging calibration.
func TestFig4PhaseBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale probe")
	}
	s, err := NewSetup(4096, []int{2048})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.newHierPricer(topology.BlockScatter, sched.NonLinear, s.P)
	if err != nil {
		t.Fatal(err)
	}
	const size = 2048
	interPat := patternForSize(h.g, size)
	for _, mp := range []Mapper{MapperNone, MapperHeuristic} {
		ph := h.phases[mp]
		t1, err := ph.gather.Price(size)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := ph.leader[interPat].Price(h.k * size)
		if err != nil {
			t.Fatal(err)
		}
		t3, err := ph.bcast.Price(size)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: t1=%.3gms t2=%.3gms t3=%.3gms interPat=%v", mp, t1*1e3, t2*1e3, t3*1e3, interPat)
		if fix := ph.fix[fixKey{interPat, sched.InitComm}]; fix != nil {
			ft, err := fix.Price(size)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("  initComm fix=%.3gms", ft*1e3)
		}
	}
}
