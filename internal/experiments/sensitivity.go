package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// SensitivityRow records the headline improvements under one perturbed cost
// model: one parameter scaled by Scale, everything else at defaults.
type SensitivityRow struct {
	Param string
	Scale float64
	// CyclicRing is the RMH improvement for the 64 KB ring under a cyclic
	// layout (the Fig. 3c headline); it must stay strongly positive.
	CyclicRing float64
	// IdealRing is the RMH improvement for the 64 KB ring under
	// block-bunch; it must stay ~0 (goal 2: never degrade).
	IdealRing float64
	// BlockRD is the RDMH improvement for the 512 B recursive doubling
	// under block-bunch; it must stay positive.
	BlockRD float64
}

// sensitivityParams lists the perturbed parameters with setters.
var sensitivityParams = []struct {
	name string
	set  func(*simnet.Params, float64)
}{
	{"StreamNet", func(p *simnet.Params, s float64) { p.StreamNet *= s }},
	{"CapNetPerCable", func(p *simnet.Params, s float64) { p.CapNetPerCable *= s }},
	{"CapQPIDir", func(p *simnet.Params, s float64) { p.CapQPIDir *= s }},
	{"StreamShm", func(p *simnet.Params, s float64) { p.StreamShm *= s }},
	{"AlphaNet", func(p *simnet.Params, s float64) { p.AlphaNet *= s }},
	{"MemCopy", func(p *simnet.Params, s float64) { p.MemCopy *= s }},
	{"CapSocketMem", func(p *simnet.Params, s float64) { p.CapSocketMem *= s }},
}

// Sensitivity perturbs each cost-model parameter by the given scales and
// recomputes the reproduction's headline numbers. The paper's conclusions
// should be — and the accompanying test asserts they are — sign-stable
// under factor-of-two miscalibrations: the reproduction does not hinge on
// the exact constants chosen for the simulated testbed.
func Sensitivity(p int, scales []float64) ([]SensitivityRow, error) {
	if p <= 0 {
		return nil, fmt.Errorf("experiments: process count must be positive")
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("experiments: no scales given")
	}
	cluster := topology.GPC()

	cyc := topology.MustLayout(cluster, p, topology.CyclicBunch)
	ideal := topology.MustLayout(cluster, p, topology.BlockBunch)
	cycD, err := topology.NewDistances(cluster, cyc)
	if err != nil {
		return nil, err
	}
	idealD, err := topology.NewDistances(cluster, ideal)
	if err != nil {
		return nil, err
	}
	rmhCyc, err := core.RMH(cycD, nil)
	if err != nil {
		return nil, err
	}
	rmhIdeal, err := core.RMH(idealD, nil)
	if err != nil {
		return nil, err
	}
	rdmhIdeal, err := core.RDMH(idealD, nil)
	if err != nil {
		return nil, err
	}
	ring, err := sched.Ring(p)
	if err != nil {
		return nil, err
	}
	rd, err := sched.RecursiveDoubling(p)
	if err != nil {
		return nil, err
	}

	gain := func(m *simnet.Machine, s *sched.Schedule, layout []int, mp core.Mapping, bytes int) (float64, error) {
		def, err := m.ProfileSchedule(context.Background(), s, layout)
		if err != nil {
			return 0, err
		}
		re, err := m.ProfileReordered(context.Background(), s, layout, mp, sched.InitComm)
		if err != nil {
			return 0, err
		}
		return improvement(def, re, bytes)
	}

	var rows []SensitivityRow
	for _, param := range sensitivityParams {
		for _, scale := range scales {
			params := simnet.DefaultParams()
			param.set(&params, scale)
			m, err := simnet.NewMachine(cluster, params)
			if err != nil {
				return nil, err
			}
			row := SensitivityRow{Param: param.name, Scale: scale}
			if row.CyclicRing, err = gain(m, ring, cyc, rmhCyc, 64*1024); err != nil {
				return nil, err
			}
			if row.IdealRing, err = gain(m, ring, ideal, rmhIdeal, 64*1024); err != nil {
				return nil, err
			}
			if row.BlockRD, err = gain(m, rd, ideal, rdmhIdeal, 512); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
