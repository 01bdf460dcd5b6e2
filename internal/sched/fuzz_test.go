package sched

import "testing"

// FuzzAllgatherSchedulesVerify generates schedules for fuzzer-chosen rank
// counts and replays them: every generated schedule must implement its
// collective's contract — and compile to an executable program, since the
// generic executor now runs whatever the builders emit.
func FuzzAllgatherSchedulesVerify(f *testing.F) {
	f.Add(uint8(8), uint8(0))
	f.Add(uint8(13), uint8(1))
	f.Add(uint8(1), uint8(2))
	f.Add(uint8(100), uint8(1))
	f.Add(uint8(12), uint8(3))
	f.Add(uint8(16), uint8(4))
	f.Add(uint8(9), uint8(5))
	f.Add(uint8(32), uint8(6))
	f.Fuzz(func(t *testing.T, pRaw, algRaw uint8) {
		p := int(pRaw)%128 + 1
		pow2 := 1
		for pow2*2 <= p {
			pow2 *= 2
		}
		even := p &^ 1
		if even == 0 {
			even = 2
		}
		var s *Schedule
		var err error
		verify := (*Schedule).VerifyAllgather
		switch algRaw % 7 {
		case 0:
			s, err = RecursiveDoubling(pow2)
		case 1:
			s, err = Ring(p)
		case 2:
			s, err = Bruck(p)
		case 3:
			s, err = NeighborExchange(even)
		case 4:
			s, err = ReduceScatterAllgather(pow2)
			verify = (*Schedule).VerifyAllreduce
		case 5:
			s, err = BinomialReduceBroadcast(p)
			verify = (*Schedule).VerifyAllreduce
		default:
			s, err = ScatterAllgatherBroadcast(p)
			verify = (*Schedule).VerifyBroadcast
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(s); err != nil {
			t.Fatal(err)
		}
		prog, err := CompileCached(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzHierarchicalVerify builds hierarchical compositions from fuzzer-chosen
// shapes and replays them.
func FuzzHierarchicalVerify(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(8), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, gRaw, kRaw, intraRaw, interRaw uint8) {
		g := int(gRaw)%8 + 1
		k := int(kRaw)%8 + 1
		intra := IntraKind(intraRaw % 2)
		inter := InterKind(interRaw % 2)
		if inter == InterRecursiveDoubling && g&(g-1) != 0 {
			return // requires power-of-two node count
		}
		groups := make([][]int, g)
		for i := 0; i < g; i++ {
			for j := 0; j < k; j++ {
				groups[i] = append(groups[i], i*k+j)
			}
		}
		s, err := Hierarchical(groups, HierarchicalConfig{Intra: intra, Inter: inter})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Fatal(err)
		}
		prog, err := CompileCached(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err != nil {
			t.Fatal(err)
		}
	})
}
