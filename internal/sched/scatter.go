package sched

import "fmt"

// BinomialScatter builds the binomial-tree scatter schedule from root 0: the
// mirror image of the binomial gather, with stages descending from the
// widest stride and message sizes halving away from the root. At stage s,
// every rank aligned to 2^(s+1) that already holds its range forwards the
// upper half — blocks [i+2^s, i+2^s+size) — to rank i+2^s.
//
// The scatter is the first half of the scatter-allgather broadcast used by
// MPI libraries for large messages (paper Section V-A3: "for medium and
// large messages, broadcast is commonly implemented by a scatter-allgather
// algorithm"); its mapping needs are covered by BGMH (the tree edges and
// weights equal the gather's) and the allgather half by RMH/RDMH.
func BinomialScatter(p int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: scatter needs positive rank count, got %d", p)
	}
	s := &Schedule{Name: "binomial-scatter", P: p, Init: InitRoot}
	top := 1
	for top<<1 < p {
		top <<= 1
	}
	for pow := top; pow >= 1 && p > 1; pow >>= 1 {
		var st Stage
		for i := 0; i+pow < p; i += pow << 1 {
			child := i + pow
			size := pow
			if child+size > p {
				size = p - child
			}
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(i), Dst: int32(child), First: int32(child), N: int32(size), Mode: Range,
			})
		}
		if len(st.Transfers) > 0 {
			s.Stages = append(s.Stages, st)
		}
	}
	return s, nil
}

// VerifyScatter replays s from the scatter initial condition (the root holds
// every block) and checks that every rank ends up holding its own block.
func (s *Schedule) VerifyScatter(root int) error {
	all := make([]int32, s.NumBlocks())
	for i := range all {
		all[i] = int32(i)
	}
	rs, err := s.replayMain(func(r int) []int32 {
		if r != root {
			return nil
		}
		return all
	})
	if err != nil {
		return err
	}
	for r := 0; r < s.P; r++ {
		if !rs.held[r].has(int32(r)) {
			return fmt.Errorf("sched: %q: rank %d never receives its block %d (ends holding %d of %d blocks)",
				s.Name, r, r, rs.held[r].count(), s.NumBlocks())
		}
	}
	return nil
}

// ScatterAllgatherBroadcast composes the large-message broadcast schedule:
// binomial scatter of the p-chunk message followed by a ring allgather of
// the chunks. Each transfer's block unit is one chunk (message size / p).
func ScatterAllgatherBroadcast(p int) (*Schedule, error) {
	sc, err := BinomialScatter(p)
	if err != nil {
		return nil, err
	}
	ag, err := Ring(p)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Name: "scatter-allgather-broadcast", P: p, Init: InitRoot}
	s.Stages = append(s.Stages, sc.Stages...)
	s.Stages = append(s.Stages, ag.Stages...)
	return s, nil
}
