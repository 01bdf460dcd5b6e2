package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// numStages is the number of executed stages of s including repeats (Pre
// included) — the stage counts the paper states per algorithm.
func numStages(s *Schedule) int {
	n := 0
	for i := range s.Pre {
		n += s.Pre[i].Repeats()
	}
	for i := range s.Stages {
		n += s.Stages[i].Repeats()
	}
	return n
}

func TestRecursiveDoublingVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 64, 256} {
		s, err := RecursiveDoubling(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
		wantStages := 0
		for m := 1; m < p; m <<= 1 {
			wantStages++
		}
		if got := numStages(s); got != wantStages {
			t.Errorf("p=%d: %d stages, want %d", p, got, wantStages)
		}
	}
}

func TestRecursiveDoublingRejectsNonPowerOfTwo(t *testing.T) {
	for _, p := range []int{0, 3, 5, 6, 12, -1} {
		if _, err := RecursiveDoubling(p); err == nil {
			t.Errorf("p=%d accepted", p)
		}
	}
}

func TestRecursiveDoublingTraffic(t *testing.T) {
	s, err := RecursiveDoubling(8)
	if err != nil {
		t.Fatal(err)
	}
	// Stage s: 8 transfers of 2^s blocks: 8*(1+2+4) = 56.
	if got := s.TotalBlocksMoved(); got != 56 {
		t.Errorf("blocks moved = %d, want 56", got)
	}
}

func TestRingVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 16, 33, 128} {
		s, err := Ring(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
		if p > 1 && numStages(s) != p-1 {
			t.Errorf("p=%d: %d stages, want %d", p, numStages(s), p-1)
		}
	}
}

func TestRingTraffic(t *testing.T) {
	s, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	// 4 repeats x 5 transfers x 1 block.
	if got := s.TotalBlocksMoved(); got != 20 {
		t.Errorf("blocks moved = %d, want 20", got)
	}
}

func TestBruckVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 31, 100} {
		s, err := Bruck(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
		if p > 1 && s.PostCopyBlocks != p {
			t.Errorf("p=%d: post-copy %d blocks, want %d (final rotation)", p, s.PostCopyBlocks, p)
		}
	}
}

func TestBinomialGatherVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16, 64, 100} {
		s, err := BinomialGather(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyGather(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

func TestBinomialGatherMatchesTree(t *testing.T) {
	for _, p := range []int{2, 3, 8, 12, 16, 33} {
		if err := assertTreeConsistency(p); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

func TestBinomialBroadcastVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 27, 64} {
		s, err := BinomialBroadcast(p, 3)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyBroadcast(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
		for _, st := range s.Stages {
			for _, tr := range st.Transfers {
				if tr.N != 3 {
					t.Errorf("p=%d: transfer carries %d blocks, want 3", p, tr.N)
				}
			}
		}
	}
}

func TestLinearSchedules(t *testing.T) {
	g, err := LinearGather(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyGather(); err != nil {
		t.Error(err)
	}
	if numStages(g) != 1 {
		t.Errorf("linear gather has %d stages", numStages(g))
	}
	b, err := LinearBroadcast(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.VerifyBroadcast(); err != nil {
		t.Error(err)
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := Ring(0); err == nil {
		t.Error("Ring(0) accepted")
	}
	if _, err := Bruck(-1); err == nil {
		t.Error("Bruck(-1) accepted")
	}
	if _, err := BinomialGather(0); err == nil {
		t.Error("BinomialGather(0) accepted")
	}
	if _, err := BinomialBroadcast(4, 0); err == nil {
		t.Error("BinomialBroadcast with 0 blocks accepted")
	}
	if _, err := LinearGather(0); err == nil {
		t.Error("LinearGather(0) accepted")
	}
	if _, err := LinearBroadcast(0, 1); err == nil {
		t.Error("LinearBroadcast(0) accepted")
	}
}

func TestForPattern(t *testing.T) {
	for _, pat := range core.Patterns {
		s, err := ForPattern(pat, 8)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", pat, err)
		}
	}
	if _, err := ForPattern(core.Pattern(99), 8); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s, _ := Ring(4)
	s.Stages[0].Transfers[0].Dst = 99
	if err := s.Validate(); err == nil {
		t.Error("out-of-range rank accepted")
	}
	s2, _ := Ring(4)
	s2.Stages[0].Transfers[0].Dst = s2.Stages[0].Transfers[0].Src
	if err := s2.Validate(); err == nil {
		t.Error("self transfer accepted")
	}
	s3, _ := Ring(4)
	s3.Stages[0].Transfers[0].N = 0
	if err := s3.Validate(); err == nil {
		t.Error("zero block transfer accepted")
	}
	s4, _ := Ring(4)
	s4.Stages[0].Repeat = -2
	if err := s4.Validate(); err == nil {
		t.Error("negative repeat accepted")
	}
	s5 := &Schedule{Name: "bad", P: 0}
	if err := s5.Validate(); err == nil {
		t.Error("P=0 accepted")
	}
}

func TestVerifyDetectsBrokenSchedule(t *testing.T) {
	s, _ := RecursiveDoubling(8)
	s.Stages = s.Stages[:2] // drop the last stage: blocks missing
	if err := s.VerifyAllgather(); err == nil {
		t.Error("truncated recursive doubling verified")
	}
	g, _ := BinomialGather(8)
	g.Stages = g.Stages[:1]
	if err := g.VerifyGather(); err == nil {
		t.Error("truncated gather verified")
	}
	b, _ := BinomialBroadcast(8, 1)
	b.Stages = b.Stages[1:]
	if err := b.VerifyBroadcast(); err == nil {
		t.Error("headless broadcast verified")
	}
}

func TestVerifyDetectsUnheldRangeSend(t *testing.T) {
	s := &Schedule{Name: "bogus", P: 4, Stages: []Stage{{
		Transfers: []Transfer{{Src: 0, Dst: 1, First: 2, N: 1, Mode: Range}},
	}}}
	if err := s.VerifyAllgather(); err == nil {
		t.Error("send of unheld block verified")
	}
}

func TestAllgatherVerificationProperty(t *testing.T) {
	prop := func(pRaw uint8, alg uint8) bool {
		p := int(pRaw)%64 + 1
		var s *Schedule
		var err error
		switch alg % 3 {
		case 0:
			// Round p to a power of two for recursive doubling.
			q := 1
			for q*2 <= p {
				q *= 2
			}
			s, err = RecursiveDoubling(q)
		case 1:
			s, err = Ring(p)
		default:
			s, err = Bruck(p)
		}
		if err != nil {
			return false
		}
		return s.VerifyAllgather() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestScheduleAccountingHelpers(t *testing.T) {
	s, _ := Ring(4)
	if numStages(s) != 3 {
		t.Errorf("numStages = %d, want 3", numStages(s))
	}
	st := Stage{}
	if st.Repeats() != 1 {
		t.Error("zero Repeat should execute once")
	}
}
