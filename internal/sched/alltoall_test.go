package sched

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPairwiseAlltoallVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16, 33} {
		s, err := PairwiseAlltoall(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyAlltoall(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
		if got := len(s.Stages); p > 1 && got != p-1 {
			t.Errorf("p=%d: %d stages, want %d", p, got, p-1)
		}
	}
}

func TestBruckAlltoallVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16, 33, 64} {
		s, err := BruckAlltoall(p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := s.VerifyAlltoall(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

func TestBruckAlltoallLogRounds(t *testing.T) {
	s, err := BruckAlltoall(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stages) != 6 {
		t.Errorf("p=64: %d rounds, want log2(64)=6", len(s.Stages))
	}
	// Each round every rank ships one bundle: p transfers per stage.
	for i, st := range s.Stages {
		if len(st.Transfers) != 64 {
			t.Errorf("round %d: %d transfers, want 64", i, len(st.Transfers))
		}
	}
}

func TestTorusRRAlltoallVerifies(t *testing.T) {
	for _, dims := range [][]int{{4}, {2, 2}, {4, 4}, {8, 8}, {3, 5}, {4, 4, 2}, {2, 3, 4}, {8, 4, 4, 2}} {
		s, err := TorusRRAlltoall(dims)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := s.VerifyAlltoall(); err != nil {
			t.Errorf("%v: %v", dims, err)
		}
	}
}

// ringDelta is the signed minimal ring offset from a to b on an n-ring,
// breaking the n/2 tie forward — the same convention as the torus model's
// dimension-order routing, so a +1 step here prices onto the +direction
// link there.
func ringDelta(a, b, n int) int {
	d := ((b-a)%n + n) % n
	if d*2 <= n {
		return d
	}
	return d - n
}

// torusRRAlltoallReference is the original TorusRRAlltoall, retained as the
// readable specification of the schedule: it re-derives every block's holder
// from coordinates per (src, dst) pair. The production builder must emit a
// structurally identical schedule (TestTorusRRAlltoallMatchesReference).
func torusRRAlltoallReference(dims []int) (*Schedule, error) {
	p, err := dimsRanks(dims)
	if err != nil {
		return nil, err
	}
	s := &Schedule{
		Name: "torus-rr-alltoall-" + dimsName(dims),
		P:    p, Blocks: p * p, Init: InitSlab,
	}
	for d, n := range dims {
		if n == 1 {
			continue
		}
		for t := 1; t*2 <= n; t++ {
			// payload[h] and payloadBack[h] are rank h's +1 / -1 messages of
			// round t; src-major, dst-minor iteration keeps block lists
			// ascending.
			fwd := make([][]int32, p)
			bwd := make([][]int32, p)
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					delta := ringDelta(dimCoord(src, dims, d), dimCoord(dst, dims, d), n)
					step := 1
					if delta < 0 {
						step, delta = -1, -delta
					}
					if t > delta {
						continue // arrived (or never left) in this dimension
					}
					// The block has already corrected dimensions < d and
					// stepped t-1 hops in dimension d.
					cur := src
					for e := 0; e < d; e++ {
						cur = withDimCoord(cur, dims, e, dimCoord(dst, dims, e))
					}
					cur = withDimCoord(cur, dims, d, dimCoord(src, dims, d)+step*(t-1))
					if step > 0 {
						fwd[cur] = append(fwd[cur], pairBlock(src, dst, p))
					} else {
						bwd[cur] = append(bwd[cur], pairBlock(src, dst, p))
					}
				}
			}
			st := Stage{}
			for h := 0; h < p; h++ {
				if len(fwd[h]) > 0 {
					st.Transfers = append(st.Transfers, Transfer{
						Src: int32(h), Dst: int32(withDimCoord(h, dims, d, dimCoord(h, dims, d)+1)),
						N: int32(len(fwd[h])), Mode: List, Blocks: fwd[h],
					})
				}
				if len(bwd[h]) > 0 {
					st.Transfers = append(st.Transfers, Transfer{
						Src: int32(h), Dst: int32(withDimCoord(h, dims, d, dimCoord(h, dims, d)-1)),
						N: int32(len(bwd[h])), Mode: List, Blocks: bwd[h],
					})
				}
			}
			if len(st.Transfers) > 0 {
				s.Stages = append(s.Stages, st)
			}
		}
	}
	return s, nil
}

// TestTorusRRAlltoallMatchesReference requires the table-driven builder to
// reproduce the reference stage for stage, transfer for transfer and block
// for block — equal fingerprints mean equal compile-cache and synth-table
// keys and bit-identical prices — and to verify as an all-to-all.
func TestTorusRRAlltoallMatchesReference(t *testing.T) {
	for _, dims := range [][]int{{8}, {4, 4}, {8, 8}, {3, 5}, {1, 4, 2}, {4, 4, 4}, {4, 4, 4, 4}, {2, 2, 4, 4}, {5, 1, 3}} {
		got, err := TorusRRAlltoall(dims)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		want, err := torusRRAlltoallReference(dims)
		if err != nil {
			t.Fatalf("%v: reference: %v", dims, err)
		}
		if Fingerprint(got) != Fingerprint(want) {
			t.Errorf("%v: fingerprint differs from the reference builder", dims)
		}
		if err := got.VerifyAlltoall(); err != nil {
			t.Errorf("%v: %v", dims, err)
		}
	}
}

// TestTorusRRAlltoallSingleHop pins the property the simnet pricing rewards:
// every transfer moves between ranks adjacent in exactly one torus dimension
// (one ring hop), so each message occupies a single directed link.
func TestTorusRRAlltoallSingleHop(t *testing.T) {
	dims := []int{4, 4, 2}
	s, err := TorusRRAlltoall(dims)
	if err != nil {
		t.Fatal(err)
	}
	for si, st := range s.Stages {
		for _, tr := range st.Transfers {
			diff := 0
			for d := range dims {
				a, b := dimCoord(int(tr.Src), dims, d), dimCoord(int(tr.Dst), dims, d)
				if a == b {
					continue
				}
				diff++
				if delta := ringDelta(a, b, dims[d]); delta != 1 && delta != -1 {
					t.Fatalf("stage %d: %d->%d spans %d ring hops in dim %d", si, tr.Src, tr.Dst, delta, d)
				}
			}
			if diff != 1 {
				t.Fatalf("stage %d: %d->%d differs in %d dimensions, want 1", si, tr.Src, tr.Dst, diff)
			}
		}
	}
}

// TestTorusRRAlltoallLinkDisjointRounds asserts the defining property of the
// direct-connect round-robin schedule: within any one stage no directed torus
// link (dimension, direction, source rank) carries two messages.
func TestTorusRRAlltoallLinkDisjointRounds(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {4, 4, 4}, {4, 4, 2}} {
		s, err := TorusRRAlltoall(dims)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for si, st := range s.Stages {
			used := map[[2]int32]bool{}
			for _, tr := range st.Transfers {
				key := [2]int32{tr.Src, tr.Dst}
				if used[key] {
					t.Fatalf("%v stage %d: link %d->%d used twice", dims, si, tr.Src, tr.Dst)
				}
				used[key] = true
			}
		}
	}
}

func TestTorusDimwiseAllgatherVerifies(t *testing.T) {
	for _, dims := range [][]int{{4}, {4, 4}, {8, 8}, {3, 5}, {4, 4, 2}, {2, 3, 4}} {
		s, err := TorusDimwiseAllgather(dims)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := s.VerifyAllgather(); err != nil {
			t.Errorf("%v: %v", dims, err)
		}
	}
}

func TestTorusDimwiseAllreduceVerifies(t *testing.T) {
	for _, dims := range [][]int{{4}, {4, 4}, {8, 8}, {4, 4, 2}, {2, 2, 2, 2}} {
		s, err := TorusDimwiseAllreduce(dims)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := s.VerifyAllreduce(); err != nil {
			t.Errorf("%v: %v", dims, err)
		}
	}
	if _, err := TorusDimwiseAllreduce([]int{3, 4}); err == nil {
		t.Error("accepted non-power-of-two dimension")
	}
}

func TestPipelinedBroadcastVerifies(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8, 13, 16, 64} {
		for _, chunks := range []int{2, 4, 8} {
			s, err := PipelinedBroadcast(p, chunks)
			if err != nil {
				t.Fatalf("p=%d chunks=%d: %v", p, chunks, err)
			}
			if err := s.VerifyBroadcast(0); err != nil {
				t.Errorf("p=%d chunks=%d: %v", p, chunks, err)
			}
		}
	}
	if _, err := PipelinedBroadcast(8, 1); err == nil {
		t.Error("accepted a single chunk")
	}
}

func TestListTransferValidation(t *testing.T) {
	s := &Schedule{Name: "bad-list", P: 2, Blocks: 4, Init: InitSlab, Stages: []Stage{{
		Transfers: []Transfer{{Src: 0, Dst: 1, N: 2, Mode: List, Blocks: []int32{0}}},
	}}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "N=2 for 1 listed blocks") {
		t.Errorf("want N/len mismatch error, got %v", err)
	}
	s.Stages[0].Transfers[0] = Transfer{Src: 0, Dst: 1, N: 1, Mode: List, Blocks: []int32{9}}
	if err := s.Validate(); err == nil {
		t.Error("accepted out-of-range listed block")
	}
}

func TestInitSlabValidation(t *testing.T) {
	s := &Schedule{Name: "bad-slab", P: 3, Blocks: 4, Init: InitSlab, Stages: []Stage{{
		Transfers: []Transfer{{Src: 0, Dst: 1, First: 0, N: 1, Mode: Range}},
	}}}
	if err := s.Validate(); err == nil {
		t.Error("accepted slab init with blocks not divisible by P")
	}
}

func TestListFingerprintCoversBlocks(t *testing.T) {
	mk := func(blocks []int32) *Schedule {
		return &Schedule{Name: "fp", P: 2, Blocks: 4, Init: InitSlab, Stages: []Stage{{
			Transfers: []Transfer{{Src: 0, Dst: 1, N: int32(len(blocks)), Mode: List, Blocks: blocks}},
		}}}
	}
	a := Fingerprint(mk([]int32{0, 1}))
	b := Fingerprint(mk([]int32{1, 0}))
	if a == b {
		t.Error("fingerprint ignores List block order")
	}
}

// TestAlltoallExecutableView compiles both all-to-all builders to the
// executable view, exercising InitSlab seeding and List resolution.
func TestAlltoallExecutableView(t *testing.T) {
	for _, build := range []func(int) (*Schedule, error){PairwiseAlltoall, BruckAlltoall} {
		s, err := build(8)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.EnsureExecutable(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func TestVerifyAlltoallCatchesDrops(t *testing.T) {
	s, err := PairwiseAlltoall(4)
	if err != nil {
		t.Fatal(err)
	}
	s.Stages = s.Stages[:len(s.Stages)-1] // final exchange never happens
	if err := s.VerifyAlltoall(); err == nil {
		t.Error("verified an all-to-all that drops the last exchange")
	}
}

func TestFamilyRegistryComplete(t *testing.T) {
	fams := Families()
	if len(fams) != 6 {
		t.Fatalf("%d families registered, want 6", len(fams))
	}
	wantNames := []string{"allgather", "allreduce", "bcast", "gather", "scatter", "alltoall"}
	for i, f := range fams {
		if f.Name != wantNames[i] {
			t.Errorf("family %d = %q, want %q", i, f.Name, wantNames[i])
		}
		if f.Verify == nil || f.Baseline == nil || len(f.Builders) == 0 || len(f.Seeds) == 0 {
			t.Errorf("family %q missing a contract hook", f.Name)
		}
		for _, seed := range f.Seeds {
			if _, ok := f.Builders[seed]; !ok {
				t.Errorf("family %q seeds unknown builder %q", f.Name, seed)
			}
		}
		if id, err := ParseFamily(f.Name); err != nil || id != f.ID {
			t.Errorf("ParseFamily(%q) = %v, %v", f.Name, id, err)
		}
	}
}

// TestFamilyBuildersVerify builds every registered base builder at a
// power-of-two and an odd rank count and replays it against the family's
// own Verify contract — the registry invariant that makes front doors and
// the synth searcher safe without per-family switches.
func TestFamilyBuildersVerify(t *testing.T) {
	for _, f := range Families() {
		for _, name := range f.BuilderNames() {
			for _, p := range []int{8, 6} {
				s, err := f.Build(name, p)
				if err != nil {
					// Some builders are power-of-two only; that is part of
					// their contract, not a registry failure.
					continue
				}
				if err := f.Verify(s); err != nil {
					t.Errorf("%s/%s p=%d: %v", f.Name, name, p, err)
				}
			}
		}
	}
}

func TestForPatternAlltoall(t *testing.T) {
	s, err := ForPattern(core.Alltoall, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "pairwise-alltoall" {
		t.Errorf("pattern alltoall builds %q", s.Name)
	}
	spec, ok := PatternFor(core.Alltoall)
	if !ok || spec.Heuristic != "auto" || spec.OrderSensitive {
		t.Errorf("alltoall pattern spec = %+v", spec)
	}
}

func TestBucketBytesPerPair(t *testing.T) {
	// The selection-table bucket for all-to-all is the per-pair size, so the
	// same per-pair payload buckets identically at 64 and 256 ranks.
	perPair := 4096
	b64 := FamilyAlltoall.BucketBytes(64, perPair*64)
	b256 := FamilyAlltoall.BucketBytes(256, perPair*256)
	if b64 != perPair || b256 != perPair {
		t.Errorf("per-pair buckets: p=64 -> %d, p=256 -> %d, want %d", b64, b256, perPair)
	}
	// Non-pair families bucket on the payload itself.
	if got := FamilyAllgather.BucketBytes(64, 8192); got != 8192 {
		t.Errorf("allgather bucket = %d, want 8192", got)
	}
}

func TestFamilyBlockBytes(t *testing.T) {
	s, err := PairwiseAlltoall(8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FamilyAlltoall.BlockBytes(s, 8*512)
	if err != nil || got != 512 {
		t.Errorf("alltoall BlockBytes = %d, %v; want 512", got, err)
	}
	if _, err := FamilyAlltoall.BlockBytes(s, 100); err == nil {
		t.Error("accepted payload not divisible by P")
	}
}
