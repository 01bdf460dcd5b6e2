package sched

import "testing"

func TestBinomialScatterVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16, 64, 100} {
		s, err := BinomialScatter(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyScatter(0); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

func TestBinomialScatterMirrorsGather(t *testing.T) {
	// Scatter edges are gather edges reversed with equal block counts.
	p := 24
	sc, err := BinomialScatter(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BinomialGather(p)
	if err != nil {
		t.Fatal(err)
	}
	type edge struct{ a, b, n int32 }
	collect := func(s *Schedule, flip bool) map[edge]bool {
		out := map[edge]bool{}
		for _, st := range s.Stages {
			for _, tr := range st.Transfers {
				e := edge{tr.Src, tr.Dst, tr.N}
				if flip {
					e = edge{tr.Dst, tr.Src, tr.N}
				}
				out[e] = true
			}
		}
		return out
	}
	se, ge := collect(sc, false), collect(g, true)
	if len(se) != len(ge) {
		t.Fatalf("scatter has %d edges, gather %d", len(se), len(ge))
	}
	for e := range se {
		if !ge[e] {
			t.Errorf("scatter edge %+v missing from reversed gather", e)
		}
	}
}

func TestBinomialScatterTruncatedTailSendsWholeRange(t *testing.T) {
	// Non-power-of-two: the truncated subtree sizes must still cover every
	// rank exactly once.
	s, err := BinomialScatter(6)
	if err != nil {
		t.Fatal(err)
	}
	received := map[int32]int32{} // rank -> blocks received
	for _, st := range s.Stages {
		for _, tr := range st.Transfers {
			received[tr.Dst] += tr.N
		}
	}
	// Total blocks delivered = sum of subtree sizes of all non-roots = 5
	// leaves' own blocks counted once per tree hop... simplest invariant:
	// every non-root receives at least its own block.
	for r := int32(1); r < 6; r++ {
		if received[r] < 1 {
			t.Errorf("rank %d receives nothing", r)
		}
	}
}

func TestScatterAllgatherBroadcastVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 8, 16, 33} {
		s, err := ScatterAllgatherBroadcast(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyBroadcast(0); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

func TestScatterErrors(t *testing.T) {
	if _, err := BinomialScatter(0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := ScatterAllgatherBroadcast(-1); err == nil {
		t.Error("p=-1 accepted")
	}
}

func TestVerifyScatterDetectsTruncation(t *testing.T) {
	s, err := BinomialScatter(8)
	if err != nil {
		t.Fatal(err)
	}
	s.Stages = s.Stages[:1]
	if err := s.VerifyScatter(0); err == nil {
		t.Error("truncated scatter verified")
	}
}
