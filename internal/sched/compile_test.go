package sched

import (
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestCompilePricingViewPreservesRepeats pins the core pricing property of
// the compiled program: a repeated stage appears once with its repeat count,
// never expanded, so pricing a 4096-rank ring touches one stage.
func TestCompilePricingViewPreservesRepeats(t *testing.T) {
	s, err := Ring(4096)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumPriceStages() != 1 {
		t.Fatalf("ring pricing view has %d stages, want 1", prog.NumPriceStages())
	}
	if r := prog.Schedule().Stages[0].Repeats(); r != 4095 {
		t.Errorf("ring stage repeat = %d, want 4095", r)
	}
}

// TestCompileCopiesNoTransfers: a program's pricing view is the schedule
// it was compiled from, so Compile allocates the same few bytes whatever the
// transfer count. Copying the pairwise all-to-all's transfer lists into a
// second stage list cost 3.47 MB at p = 256 (65 280 transfers).
func TestCompileCopiesNoTransfers(t *testing.T) {
	perCompile := func(p int) (allocs float64, bytes uint64) {
		s, err := PairwiseAlltoall(p)
		if err != nil {
			t.Fatal(err)
		}
		compile := func() {
			if _, err := Compile(s); err != nil {
				t.Fatal(err)
			}
		}
		compile()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			compile()
		}
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(runs, compile), (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, _ := perCompile(16)
	allocs, bytes := perCompile(256)
	if allocs != smallAllocs {
		t.Errorf("Compile allocates %.0f times at p=256, %.0f at p=16: it grows with the transfer count", allocs, smallAllocs)
	}
	if bytes > 1<<10 {
		t.Errorf("Compile of pairwise all-to-all p=256 allocates %d bytes, want under 1 KiB", bytes)
	}
}

// TestCompileExecutableRing checks the expanded executable view of the ring:
// p-1 expanded stages of p single-block transfers, with the Latest chain
// resolved to each rank forwarding the block it received in the previous
// repeat.
func TestCompileExecutableRing(t *testing.T) {
	const p = 5
	s, err := Ring(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.EnsureExecutable(); err != nil {
		t.Fatal(err)
	}
	stages := prog.ExecStages()
	if len(stages) != p-1 {
		t.Fatalf("ring expands to %d stages, want %d", len(stages), p-1)
	}
	ops := prog.Ops()
	for si, es := range stages {
		if es.OpN-es.Op0 != p {
			t.Fatalf("stage %d has %d ops, want %d", si, es.OpN-es.Op0, p)
		}
		for i := es.Op0; i < es.OpN; i++ {
			op := ops[i]
			blocks := prog.OpBlocks(op)
			if len(blocks) != 1 {
				t.Fatalf("stage %d op %d carries %d blocks, want 1", si, i, len(blocks))
			}
			// At ring step si a rank forwards the block contributed si
			// ranks upstream of it.
			want := int32(((int(op.Src)-si)%p + p) % p)
			if blocks[0] != want {
				t.Errorf("stage %d: rank %d forwards block %d, want %d", si, op.Src, blocks[0], want)
			}
		}
	}
}

// TestCompileRejectsSizedOnly: pricing-only schedules compile but refuse to
// produce an executable view.
func TestCompileRejectsSizedOnly(t *testing.T) {
	s := EndShuffleSchedule(4)
	prog, err := Compile(s)
	if err != nil {
		t.Fatalf("pricing-only schedule failed to compile: %v", err)
	}
	if err := prog.EnsureExecutable(); err == nil {
		t.Fatal("pricing-only program produced an executable view")
	} else if !strings.Contains(err.Error(), "pricing-only") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestCompileRefusesIrregularPre: the executable view runs a Pre stage only
// as Range transfers run once, the shape WithOrderPreservation emits; a
// repeated or reducing Pre stage, or one with another transfer mode, is
// refused, as the reference builder refuses it.
func TestCompileRefusesIrregularPre(t *testing.T) {
	swap := Transfer{Src: 0, Dst: 1, First: 0, N: 1, Mode: Range}
	list := Transfer{Src: 0, Dst: 1, N: 1, Mode: List, Blocks: []int32{0}}
	for what, pre := range map[string]Stage{
		"repeated": {Transfers: []Transfer{swap}, Repeat: 2},
		"reducing": {Transfers: []Transfer{swap}, Reduce: true},
		"list":     {Transfers: []Transfer{list}},
	} {
		s, err := RecursiveDoubling(4)
		if err != nil {
			t.Fatal(err)
		}
		s.Pre = []Stage{pre}
		prog, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err == nil || !strings.Contains(err.Error(), "pre stage 0") {
			t.Errorf("%s Pre stage: EnsureExecutable says %v", what, err)
		}
		if _, err := refExecView(s); err == nil {
			t.Errorf("%s Pre stage: the reference builds", what)
		}
	}
}

// TestCompileDetectsUnheldSend: the executable build replays possession and
// must reject a schedule whose stage reads a block not yet received.
func TestCompileDetectsUnheldSend(t *testing.T) {
	s := &Schedule{Name: "bad", P: 3, Stages: []Stage{
		// Rank 0 forwards block 2, which it never received.
		{Transfers: []Transfer{{Src: 0, Dst: 1, First: 2, N: 1, Mode: Range}}},
	}}
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.EnsureExecutable(); err == nil {
		t.Fatal("unheld send accepted by the executable build")
	}
}

// TestExecViewMatchesReference: on every construction of every family at
// p ∈ {4, 6, 16, 64}, on its order-preserving variants (Pre stages, which the
// view runs first) and on every mutant of it, the
// executable view the replay records equals the one the reference builder in
// compile_ref_test.go resolves — ops, block lists, expanded stages, their
// pricing indices and every rank's step stream with its Lend marks — and a
// schedule the reference refuses is refused. Beyond the reference, the view
// refuses only mutants in which two transfers of one non-Reduce stage repeat
// deliver the same block to one rank (the executor could not order the
// stores), and never a construction.
func TestExecViewMatchesReference(t *testing.T) {
	doubleDelivery := regexp.MustCompile(`: stage (\d+) repeat \d+: transfer \d+: ranks \d+ and \d+ both deliver block`)
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n } // the pattern matched digits only
	var equal, bothRefuse, doubles int
	for _, p := range verifySuiteRanks {
		for _, in := range verifyInputs(p) {
			built := append([]verifyMutant{{"as built", in.s}}, orderFixes(in.s)...)
			for i, m := range append(built, verifyMutants(in.s)...) {
				ref, refErr := refExecView(m.s)
				if ref == nil {
					continue // does not compile
				}
				prog, err := Compile(m.s)
				if err != nil {
					t.Fatal(err)
				}
				err = prog.EnsureExecutable()
				what := fmt.Sprintf("%s/%s p=%d, %s", in.fam.Name, in.name, p, m.what)
				switch {
				case refErr != nil && err != nil:
					bothRefuse++
				case refErr != nil:
					t.Errorf("%s: the reference refuses (%v), the view builds", what, refErr)
				case err != nil:
					doubles++
					sm := doubleDelivery.FindStringSubmatch(err.Error())
					if i < len(built) || sm == nil || m.s.Stages[atoi(sm[1])].Reduce {
						t.Errorf("%s: the view refuses (%v), the reference builds", what, err)
					}
				default:
					equal++
					if !slices.Equal(prog.Ops(), ref.Ops()) || !slices.Equal(prog.blockIdx, ref.blockIdx) ||
						!slices.Equal(prog.ExecStages(), ref.ExecStages()) || !slices.Equal(prog.PriceStageMap(), ref.PriceStageMap()) {
						t.Errorf("%s: the executable view differs from the reference", what)
					}
					for r := 0; r < p; r++ {
						if !slices.Equal(prog.RankSteps(r), ref.RankSteps(r)) {
							t.Errorf("%s: rank %d's steps differ from the reference", what, r)
							break
						}
					}
				}
			}
		}
	}
	t.Logf("%d views equal, %d refused by both, %d double deliveries refused by the view only", equal, bothRefuse, doubles)
}

// TestRankStepsSendBeforeRecv pins the deadlock-freedom invariant the
// executor relies on: within every expanded stage, each rank's sends precede
// its receives and op indices ascend on both sides.
func TestRankStepsSendBeforeRecv(t *testing.T) {
	for _, build := range []func() (*Schedule, error){
		func() (*Schedule, error) { return RecursiveDoubling(8) },
		func() (*Schedule, error) { return Bruck(7) },
		func() (*Schedule, error) { return NeighborExchange(6) },
		func() (*Schedule, error) { return ReduceScatterAllgather(8) },
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < prog.P; r++ {
			lastStage, lastSend, lastRecv := int32(-1), int32(-1), int32(-1)
			seenRecv := false
			for _, stp := range prog.RankSteps(r) {
				if stp.Stage != lastStage {
					if stp.Stage < lastStage {
						t.Fatalf("%s: rank %d: stages not ascending", s.Name, r)
					}
					lastStage, lastSend, lastRecv, seenRecv = stp.Stage, -1, -1, false
				}
				if stp.Send {
					if seenRecv {
						t.Fatalf("%s: rank %d: send after recv in stage %d", s.Name, r, stp.Stage)
					}
					if stp.Op <= lastSend {
						t.Fatalf("%s: rank %d: send op order not ascending in stage %d", s.Name, r, stp.Stage)
					}
					lastSend = stp.Op
				} else {
					if stp.Op <= lastRecv {
						t.Fatalf("%s: rank %d: recv op order not ascending in stage %d", s.Name, r, stp.Stage)
					}
					lastRecv = stp.Op
					seenRecv = true
				}
			}
		}
	}
}

// TestVerifyRejectsOverlappingStageDeliveries: two same-stage transfers may
// deliver to one destination only with disjoint blocks.
func TestVerifyRejectsOverlappingStageDeliveries(t *testing.T) {
	s := &Schedule{Name: "overlap", P: 3, Init: InitAll, Stages: []Stage{
		{Transfers: []Transfer{
			{Src: 0, Dst: 2, First: 1, N: 1, Mode: Range},
			{Src: 1, Dst: 2, First: 1, N: 1, Mode: Range},
		}},
	}}
	_, err := s.replayMain()
	if err == nil {
		t.Fatal("overlapping same-stage deliveries accepted")
	}
	if !strings.Contains(err.Error(), "both deliver block 1 to rank 2") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestValidateRejectsOutOfRangeRanksAndBlocks exercises Validate's bounds
// checks over the extended IR (Blocks, Root, Init).
func TestValidateRejectsOutOfRangeRanksAndBlocks(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"src", &Schedule{Name: "x", P: 2, Stages: []Stage{
			{Transfers: []Transfer{{Src: 2, Dst: 0, N: 1, Mode: Range}}}}}},
		{"dst", &Schedule{Name: "x", P: 2, Stages: []Stage{
			{Transfers: []Transfer{{Src: 0, Dst: -1, N: 1, Mode: Range}}}}}},
		{"self", &Schedule{Name: "x", P: 2, Stages: []Stage{
			{Transfers: []Transfer{{Src: 1, Dst: 1, N: 1, Mode: Range}}}}}},
		{"first", &Schedule{Name: "x", P: 2, Stages: []Stage{
			{Transfers: []Transfer{{Src: 0, Dst: 1, First: 5, N: 1, Mode: Range}}}}}},
		{"blocks", &Schedule{Name: "x", P: 2, Blocks: -1}},
		{"root", &Schedule{Name: "x", P: 2, Root: 7}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: corrupt schedule validated", tc.name)
		}
	}
}

// TestVerifyAllreduceContracts: the contribution replay accepts both real
// reduction schedules and rejects double absorption.
func TestVerifyAllreduceContracts(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		s, err := BinomialReduceBroadcast(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyAllreduce(); err != nil {
			t.Errorf("binomial allreduce p=%d: %v", p, err)
		}
	}
	for _, p := range []int{2, 4, 8, 16} {
		s, err := ReduceScatterAllgather(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyAllreduce(); err != nil {
			t.Errorf("rabenseifner p=%d: %v", p, err)
		}
	}
	// A stage absorbing one contribution twice must be rejected.
	double := &Schedule{Name: "double", P: 2, Blocks: 1, Init: InitAll, Stages: []Stage{
		{Reduce: true, Transfers: []Transfer{{Src: 0, Dst: 1, First: 0, N: 1, Mode: Range}}},
		{Reduce: true, Transfers: []Transfer{{Src: 0, Dst: 1, First: 0, N: 1, Mode: Range}}},
	}}
	if err := double.VerifyAllreduce(); err == nil {
		t.Error("double absorption accepted")
	}
	// Wrong initial condition.
	wrongInit := &Schedule{Name: "wrong", P: 2, Blocks: 1}
	if err := wrongInit.VerifyAllreduce(); err == nil {
		t.Error("allreduce verify accepted InitOwn schedule")
	}
}

func TestNeighborExchangeVerifies(t *testing.T) {
	for _, p := range []int{2, 4, 6, 10, 16, 30} {
		s, err := NeighborExchange(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
	if _, err := NeighborExchange(5); err == nil {
		t.Error("odd rank count accepted")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("equal schedules fingerprint differently")
	}
	c, err := Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("different rank counts share a fingerprint")
	}
	d := *a
	d.Stages = append([]Stage{}, a.Stages...)
	d.Stages[0] = Stage{Repeat: a.Stages[0].Repeat, Reduce: true, Transfers: a.Stages[0].Transfers}
	if Fingerprint(a) == Fingerprint(&d) {
		t.Error("reduce flag does not enter the fingerprint")
	}
}

// TestFingerprintGolden pins the fingerprint byte stream: the values were
// produced by the one-Write-per-field implementation, so the staged writer
// (and any later change to it) must keep compile-cache and synth-table keys
// stable. The set covers List-mode transfers, a Pre stage, a 4096-transfer
// stage and streams that cross the 4 KiB staging buffer many times.
func TestFingerprintGolden(t *testing.T) {
	build := func(s *Schedule, err error) *Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rd := build(RecursiveDoubling(16))
	m := core.Identity(16)
	m[0], m[5] = m[5], m[0]
	for _, tc := range []struct {
		s    *Schedule
		want string
	}{
		{build(BruckAlltoall(8)), "fef39eaf12e120d03a41305b5c83cc5372619116fd28787efd96271e5f17cf2a"},
		{build(BruckAlltoall(64)), "4b43fe5299114ea317fe05e3475318d92b549f8972ae38f8268828a6d5a5e407"},
		{build(TorusRRAlltoall([]int{4, 4})), "3985e1465f0a4d4124638ec8eb3e0b37e72b401a9088b8f44b92893bfeebd222"},
		{rd, "4d86b512d5966273d179df7b00aa1a81822168b6b786c4d038bf759feb56c241"},
		{build(WithOrderPreservation(rd, m, InitComm)), "e24edfcd3bcf34a600bb752859e97ef7048626f5091f87bd3c6944751379a538"},
		{build(Ring(4096)), "28d534a8c2a97bab7cba76969a4d26b1f725ab085939cc5664eadceb69d05125"},
		{build(ReduceScatterAllgather(32)), "bb63516d04dd0583b59cd6481f4663954f216cb8cc88d7240161ae91cbd92cfe"},
	} {
		if got := Fingerprint(tc.s); got != tc.want {
			t.Errorf("%s (P=%d): fingerprint %s, want %s", tc.s.Name, tc.s.P, got, tc.want)
		}
	}
}

func TestCompileCachedSharesAndEvicts(t *testing.T) {
	ResetCompileCache()
	h0, m0 := CompileCacheCounters()
	s, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("repeated compile of one shape returned distinct programs")
	}
	h1, m1 := CompileCacheCounters()
	if m1-m0 != 1 || h1-h0 != 1 {
		t.Errorf("counters delta hits=%d misses=%d, want 1/1", h1-h0, m1-m0)
	}
	// Flood the cache past its capacity with distinct shapes (none equal to
	// s); the probed entry must be evicted and recompile on next use.
	for p := 100; p < 100+programTableCap+4; p++ {
		r, err := Ring(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompileCached(r); err != nil {
			t.Fatal(err)
		}
	}
	_, mBefore := CompileCacheCounters()
	p3, err := CompileCached(s)
	if err != nil {
		t.Fatal(err)
	}
	_, mAfter := CompileCacheCounters()
	if mAfter != mBefore+1 {
		t.Error("evicted entry did not recompile")
	}
	if p3 == p1 {
		t.Error("evicted entry returned the stale program pointer")
	}
}

func TestInitKindString(t *testing.T) {
	for k, want := range map[InitKind]string{
		InitOwn: "own", InitRoot: "root", InitAll: "all", InitSizedOnly: "sized-only",
	} {
		if got := k.String(); got != want {
			t.Errorf("InitKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
