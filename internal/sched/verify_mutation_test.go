package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// verifyInput is one construction of a registered family.
type verifyInput struct {
	fam  *Family
	name string
	s    *Schedule
}

// verifyInputs lists every registered family's constructions at p: each
// registry builder and each hook construction the synth searcher seeds —
// torus-native builders over a few dimension vectors, pipelined broadcasts at
// a few chunk counts and, for allgather, every hierarchical composition over
// contiguous groups. A construction that rejects p (power-of-two only, say)
// is left out.
func verifyInputs(p int) []verifyInput {
	var out []verifyInput
	add := func(f *Family, name string, s *Schedule, err error) {
		if err == nil {
			out = append(out, verifyInput{f, name, s})
		}
	}
	torusDims := map[int][][]int{4: {{2, 2}}, 6: {{2, 3}, {3, 2}}, 16: {{4, 4}, {2, 8}}, 64: {{8, 8}, {4, 4, 4}}}
	for _, f := range Families() {
		for _, name := range f.BuilderNames() {
			s, err := f.Build(name, p)
			add(f, name, s, err)
		}
		if f.TorusBuilder != nil {
			for _, dims := range torusDims[p] {
				s, err := f.TorusBuilder(dims)
				add(f, fmt.Sprintf("torus-native%v", dims), s, err)
			}
		}
		if f.Pipelined != nil {
			for _, chunks := range []int{2, 8, p} {
				s, err := f.Pipelined(p, chunks)
				add(f, fmt.Sprintf("pipelined(chunks=%d)", chunks), s, err)
			}
		}
	}
	allgather, _ := FamilyAllgather.Desc()
	for g := 2; g < p; g++ {
		if p%g != 0 {
			continue
		}
		groups := make([][]int, 0, p/g)
		for lo := 0; lo < p; lo += g {
			groups = append(groups, []int{})
			for r := lo; r < lo+g; r++ {
				groups[len(groups)-1] = append(groups[len(groups)-1], r)
			}
		}
		for _, intra := range []IntraKind{Linear, NonLinear} {
			for _, inter := range []InterKind{InterRecursiveDoubling, InterRing} {
				s, err := Hierarchical(groups, HierarchicalConfig{Intra: intra, Inter: inter})
				add(allgather, fmt.Sprintf("hierarchical(g=%d,%d,%d)", g, intra, inter), s, err)
			}
		}
	}
	return out
}

// verifyMutant is one mutation of a construction.
type verifyMutant struct {
	what string
	s    *Schedule
}

// ends returns the first, middle and last index of n items, deduplicated.
func ends(n int) []int {
	var out []int
	for _, i := range []int{0, n / 2, n - 1} {
		if i >= 0 && i < n && !slices.Contains(out, i) {
			out = append(out, i)
		}
	}
	return out
}

// verifyMutants derives the mutation suite's mutants of s: drop, duplicate
// or retarget one transfer; swap two stages; merge two adjacent unrepeated
// stages; split one unrepeated stage in two — each at the first, middle and
// last position it applies to. A mutant shares every array it does not
// change with s.
func verifyMutants(s *Schedule) []verifyMutant {
	var out []verifyMutant
	with := func(what string, edit func(stages []Stage) []Stage) {
		m := *s
		if m.Stages = edit(slices.Clone(s.Stages)); m.Stages != nil {
			out = append(out, verifyMutant{what, &m})
		}
	}
	n := len(s.Stages)
	for _, si := range ends(n) {
		trs := s.Stages[si].Transfers
		for _, ti := range ends(len(trs)) {
			transfers := func(what string, edit func(trs []Transfer) []Transfer) {
				with(fmt.Sprintf("%s stage %d transfer %d", what, si, ti), func(stages []Stage) []Stage {
					stages[si].Transfers = edit(slices.Clone(trs))
					return stages
				})
			}
			transfers("drop", func(trs []Transfer) []Transfer { return slices.Delete(trs, ti, ti+1) })
			transfers("duplicate", func(trs []Transfer) []Transfer { return slices.Insert(trs, ti, trs[ti]) })
			transfers("retarget", func(trs []Transfer) []Transfer {
				tr := &trs[ti]
				if tr.Dst = (tr.Dst + 1) % int32(s.P); tr.Dst == tr.Src {
					tr.Dst = (tr.Dst + 1) % int32(s.P)
				}
				return trs
			})
		}
	}
	swaps := [][2]int{}
	for _, i := range ends(n - 1) {
		swaps = append(swaps, [2]int{i, i + 1})
	}
	if n > 2 {
		swaps = append(swaps, [2]int{0, n - 1})
	}
	for _, sw := range swaps {
		with(fmt.Sprintf("swap stages %d and %d", sw[0], sw[1]), func(stages []Stage) []Stage {
			stages[sw[0]], stages[sw[1]] = stages[sw[1]], stages[sw[0]]
			return stages
		})
	}
	for _, i := range ends(n - 1) {
		with(fmt.Sprintf("merge stages %d and %d", i, i+1), func(stages []Stage) []Stage {
			a, b := stages[i], stages[i+1]
			if a.Repeats() > 1 || b.Repeats() > 1 || a.Reduce != b.Reduce {
				return nil
			}
			stages[i].Transfers = slices.Concat(a.Transfers, b.Transfers)
			return slices.Delete(stages, i+1, i+2)
		})
	}
	for _, i := range ends(n) {
		with(fmt.Sprintf("split stage %d", i), func(stages []Stage) []Stage {
			st := stages[i]
			if st.Repeats() > 1 || len(st.Transfers) < 2 {
				return nil
			}
			half := len(st.Transfers) / 2
			first := Stage{Reduce: st.Reduce, Transfers: st.Transfers[:half:half]}
			second := Stage{Reduce: st.Reduce, Transfers: st.Transfers[half:]}
			stages[i] = first
			return slices.Insert(stages, i+1, second)
		})
	}
	return out
}

// orderFixes lists s's order-preserving variants under a mapping that swaps
// the first and last rank: an InitComm prologue (a Pre stage) and an
// EndShuffle copy. Only InitOwn schedules take them.
func orderFixes(s *Schedule) []verifyMutant {
	var out []verifyMutant
	if m := core.Identity(s.P); s.Init == InitOwn {
		m[0], m[s.P-1] = m[s.P-1], m[0]
		for _, mode := range []OrderMode{InitComm, EndShuffle} {
			if withOrder, err := WithOrderPreservation(s, m, mode); err == nil {
				out = append(out, verifyMutant{"order fix " + mode.String(), withOrder})
			}
		}
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// execute is the mutation suite's ground truth, independent of the replay: it
// runs the explicit block lists of s's executable view as the reference
// builder in compile_ref_test.go resolves them from the schedule's own
// InitKind, and checks the family's definition of a correct result. A
// schedule that stores a block into one rank twice in one stage (possession
// families) or absorbs a contribution twice (allreduce) is not correct. err
// reports an executable view that cannot be built. Contribution sets are
// single words, so p <= 64.
func execute(f *Family, s *Schedule) (correct bool, err error) {
	prog, err := refExecView(s)
	if err != nil {
		return false, err
	}
	p, blocks, ops := prog.P, prog.Blocks, prog.Ops()
	if f.ID == FamilyAllreduce {
		val := make([]uint64, p*blocks) // val[r*blocks+b]: the inputs in rank r's copy of block b
		for i := range val {
			val[i] = 1 << (i / blocks)
		}
		for _, es := range prog.ExecStages() {
			next := slices.Clone(val)
			for _, op := range ops[es.Op0:es.OpN] {
				for _, b := range prog.OpBlocks(op) {
					in, cur := val[int(op.Src)*blocks+int(b)], &next[int(op.Dst)*blocks+int(b)]
					switch {
					case !es.Reduce:
						*cur = in
					case *cur&in != 0:
						return false, nil
					default:
						*cur |= in
					}
				}
			}
			val = next
		}
		for _, v := range val {
			if v != uint64(1)<<p-1 {
				return false, nil
			}
		}
		return true, nil
	}
	have := make([]bool, p*blocks)
	for r := 0; r < p; r++ {
		for b := 0; b < blocks; b++ {
			switch prog.Init {
			case InitOwn:
				have[r*blocks+b] = b == r
			case InitRoot:
				have[r*blocks+b] = r == prog.Root
			case InitAll:
				have[r*blocks+b] = true
			case InitSlab:
				have[r*blocks+b] = b/(blocks/p) == r
			}
		}
	}
	stored := make([]int, p*blocks) // 1 + the exec stage that last stored the block
	for si, es := range prog.ExecStages() {
		for _, op := range ops[es.Op0:es.OpN] {
			for _, b := range prog.OpBlocks(op) {
				i := int(op.Dst)*blocks + int(b)
				if stored[i] == si+1 {
					return false, nil
				}
				stored[i], have[i] = si+1, true
			}
		}
	}
	holds := func(r, b int) bool { return have[r*blocks+b] }
	for r := 0; r < p; r++ {
		for b := 0; b < blocks; b++ {
			var want bool
			switch f.ID {
			case FamilyAllgather, FamilyBroadcast:
				want = true
			case FamilyGather:
				want = r == s.Root
			case FamilyScatter:
				want = b == r
			case FamilyAlltoall:
				want = blocks == p*p && b%p == r
			}
			if want && !holds(r, b) {
				return false, nil
			}
		}
	}
	return f.ID != FamilyAlltoall || (blocks == p*p && prog.Init == InitSlab), nil
}

var verifySuiteRanks = []int{4, 6, 16, 64}

// TestVerifyMatchesReference: on every construction of every family at
// p ∈ {4, 6, 16, 64}, and on every mutant of each, the family's Verify agrees
// with the reference bodies in verify_ref_test.go exactly — both nil or the
// same error text — and the possession replay from the schedule's own
// initial condition ends in the same error or the same per-rank state.
func TestVerifyMatchesReference(t *testing.T) {
	for _, p := range verifySuiteRanks {
		for _, in := range verifyInputs(p) {
			for _, m := range append([]verifyMutant{{"as built", in.s}}, verifyMutants(in.s)...) {
				got, want := errText(in.fam.Verify(m.s)), errText(refVerify(in.fam, m.s))
				if got != want {
					t.Errorf("%s/%s p=%d, %s: Verify says %q, reference %q", in.fam.Name, in.name, p, m.what, got, want)
				}
				initial, err := m.s.initialHolding()
				if err != nil || in.fam.ID == FamilyAllreduce {
					continue
				}
				rs, err := m.s.replayMain()
				ref, refErr := refReplayMain(m.s, initial)
				if errText(err) != errText(refErr) {
					t.Errorf("%s/%s p=%d, %s: replay says %q, reference %q", in.fam.Name, in.name, p, m.what, errText(err), errText(refErr))
					continue
				}
				for r := 0; err == nil && r < p; r++ {
					if !slices.Equal(rs.held[r], ref.held[r]) {
						t.Errorf("%s/%s p=%d, %s: rank %d ends holding %v, reference %v", in.fam.Name, in.name, p, m.what, r,
							rs.held[r].appendBlocks(nil), ref.held[r].appendBlocks(nil))
						break
					}
				}
			}
		}
	}
}

// TestVerifyRejectsBrokenMutants is the mutation suite: every construction of
// every family at p ∈ {4, 6, 16, 64} verifies as built and executes
// correctly, and every mutant that breaks the collective — judged by execute,
// which shares no code with the replay — is rejected. Every drop mutant
// breaks its collective, so no family's suite is vacuous.
func TestVerifyRejectsBrokenMutants(t *testing.T) {
	broken := map[string]int{}
	for _, p := range verifySuiteRanks {
		for _, in := range verifyInputs(p) {
			correct, err := execute(in.fam, in.s)
			if verr := in.fam.Verify(in.s); !correct || verr != nil {
				t.Errorf("%s/%s p=%d as built: verify %v, executes correctly %v (%v)", in.fam.Name, in.name, p, verr, correct, err)
				continue
			}
			for _, m := range verifyMutants(in.s) {
				correct, err := execute(in.fam, m.s)
				if correct {
					if strings.HasPrefix(m.what, "drop ") {
						t.Errorf("%s/%s p=%d, %s: the mutant still executes correctly", in.fam.Name, in.name, p, m.what)
					}
					continue
				}
				broken[in.fam.Name]++
				if in.fam.Verify(m.s) == nil {
					t.Errorf("%s/%s p=%d, %s: Verify accepts a broken mutant (%v)", in.fam.Name, in.name, p, m.what, err)
				}
			}
		}
	}
	for _, f := range Families() {
		if broken[f.Name] == 0 {
			t.Errorf("family %s: no mutant broke its collective", f.Name)
		}
	}
	t.Logf("broken mutants rejected per family: %v", broken)
}

// TestFingerprintMatchesReference: the record-staging Fingerprint produces
// the reference's hex for every construction and mutant above, for order
// preserving prologues (Pre stages) and for a name longer than the staging
// buffer.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, p := range verifySuiteRanks {
		for _, in := range verifyInputs(p) {
			long := *in.s
			long.Name = strings.Repeat(in.s.Name, 4096/len(in.s.Name)+1)
			cases := append([]verifyMutant{{"as built", in.s}, {"long name", &long}}, verifyMutants(in.s)...)
			for _, m := range append(cases, orderFixes(in.s)...) {
				if got, want := Fingerprint(m.s), refFingerprint(m.s); got != want {
					t.Errorf("%s/%s p=%d, %s: fingerprint %s, reference %s", in.fam.Name, in.name, p, m.what, got, want)
				}
			}
		}
	}
}
