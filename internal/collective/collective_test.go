package collective

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// input returns the deterministic test contribution of a rank.
func input(rank, blk int) []byte {
	b := make([]byte, blk)
	for i := range b {
		b[i] = byte(rank*131 + i*17 + 3)
	}
	return b
}

// expected returns the oracle allgather output for p ranks.
func expected(p, blk int) []byte {
	out := make([]byte, 0, p*blk)
	for r := 0; r < p; r++ {
		out = append(out, input(r, blk)...)
	}
	return out
}

// runAllgather drives fn on a world of p ranks and checks the output.
func runAllgather(t *testing.T, p, blk int, fn func(c *mpi.Comm, send, recv []byte) error) {
	t.Helper()
	want := expected(p, blk)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := input(c.Rank(), blk)
		recv := make([]byte, p*blk)
		if err := fn(c, send, recv); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("rank %d: wrong allgather output", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scheduleBuilt compiles a registered base builder for p ranks.
func scheduleBuilt(f sched.FamilyID, builder string, p int) (*sched.Program, error) {
	fam, err := f.Desc()
	if err != nil {
		return nil, err
	}
	return fam.BuildCached(builder, p)
}

func TestRingAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 33} {
		runAllgather(t, p, 16, func(c *mpi.Comm, send, recv []byte) error {
			return Allgather(c, send, recv, AlgRing)
		})
	}
}

func TestRecursiveDoublingAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		runAllgather(t, p, 16, func(c *mpi.Comm, send, recv []byte) error {
			return Allgather(c, send, recv, AlgRecursiveDoubling)
		})
	}
}

func TestRecursiveDoublingRejectsNonPowerOfTwo(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		send := input(c.Rank(), 8)
		recv := make([]byte, 3*8)
		if err := Allgather(c, send, recv, AlgRecursiveDoubling); err == nil {
			return fmt.Errorf("p=3 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBruckAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31} {
		runAllgather(t, p, 16, func(c *mpi.Comm, send, recv []byte) error {
			return Allgather(c, send, recv, AlgBruck)
		})
	}
}

func TestAllgatherArgChecks(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if err := Allgather(c, nil, make([]byte, 4), AlgRing); err == nil {
			return fmt.Errorf("empty send accepted")
		}
		if err := Allgather(c, make([]byte, 4), make([]byte, 4), AlgRing); err == nil {
			return fmt.Errorf("short recv accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBinomialBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 33} {
		for _, root := range []int{0, p - 1, p / 2} {
			msg := input(root, 64)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				buf := make([]byte, 64)
				if c.Rank() == root {
					copy(buf, msg)
				}
				if err := Broadcast(c, root, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, msg) {
					return fmt.Errorf("rank %d has wrong broadcast data", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBroadcastRootChecks(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if err := Broadcast(c, 5, make([]byte, 4)); err == nil {
			return fmt.Errorf("bad broadcast root accepted")
		}
		if err := Gather(c, -1, make([]byte, 4), make([]byte, 8)); err == nil {
			return fmt.Errorf("bad gather root accepted")
		}
		if err := Scatter(c, 2, make([]byte, 8), make([]byte, 4)); err == nil {
			return fmt.Errorf("bad scatter root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testGather drives the named gather builder's program toward both end
// roots and checks the root's buffer against the closed form.
func testGather(t *testing.T, builder string) {
	t.Helper()
	for _, p := range []int{1, 2, 3, 5, 8, 13, 16} {
		for _, root := range []int{0, p - 1} {
			want := expected(p, 16)
			prog, err := scheduleBuilt(sched.FamilyGather, builder, p)
			if err != nil {
				t.Fatal(err)
			}
			err = mpi.Run(p, func(c *mpi.Comm) error {
				send := input(c.Rank(), 16)
				var recv []byte
				if c.Rank() == root {
					recv = make([]byte, p*16)
				}
				if err := ExecuteGather(c, prog, root, send, recv); err != nil {
					return err
				}
				if c.Rank() == root && !bytes.Equal(recv, want) {
					return fmt.Errorf("root assembled wrong buffer")
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBinomialGather(t *testing.T) { testGather(t, "binomial-gather") }
func TestLinearGather(t *testing.T)   { testGather(t, "linear-gather") }

func TestGatherWithPlacement(t *testing.T) {
	// The executor's placement hook on a gather program — what the root
	// rotation rides on: a reversed placement must land blocks reversed.
	const p, blk = 4, 8
	prog, err := scheduleBuilt(sched.FamilyGather, "binomial-gather", p)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(p, func(c *mpi.Comm) error {
		place := func(r int) int { return p - 1 - r }
		recv := make([]byte, p*blk)
		copy(recv[place(c.Rank())*blk:], input(c.Rank(), blk))
		if err := executeProgram(c, prog, 0, recv, blk, place, nil); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := 0; r < p; r++ {
				if !bytes.Equal(recv[(p-1-r)*blk:(p-r)*blk], input(r, blk)) {
					return fmt.Errorf("placement wrong for rank %d", r)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// selected returns the program selectProgram hands a front door of family f
// on a p-rank world.
func selected(t *testing.T, p int, f sched.FamilyID, payload int, forced Algorithm) *sched.Program {
	t.Helper()
	var prog *sched.Program
	err := mpi.Run(p, func(c *mpi.Comm) (err error) {
		if c.Rank() == 0 {
			prog, err = selectProgram(c, f, c.Size(), payload, forced)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSelect pins the allgather selection against literals: the registry's
// MVAPICH-style size rule under AlgAuto, the named builder when forced.
func TestSelect(t *testing.T) {
	cases := []struct {
		alg  Algorithm
		p    int
		blk  int
		want Algorithm
	}{
		{AlgAuto, 64, 512, AlgRecursiveDoubling},
		{AlgAuto, 64, RingThresholdBytes, AlgRecursiveDoubling},
		{AlgAuto, 64, RingThresholdBytes + 1, AlgRing},
		{AlgAuto, 64, 4096, AlgRing},
		{AlgAuto, 48, 512, AlgBruck},
		{AlgAuto, 48, 40960, AlgRing},
		{AlgRing, 64, 16, AlgRing},
		{AlgBruck, 64, 1 << 20, AlgBruck},
		{AlgNeighborExchange, 48, 512, AlgNeighborExchange},
	}
	for _, tc := range cases {
		if got := selected(t, tc.p, sched.FamilyAllgather, tc.blk, tc.alg).Name; got != tc.want.String() {
			t.Errorf("selectProgram(%v,%d,%d) = %v, want %v", tc.alg, tc.p, tc.blk, got, tc.want)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range []Algorithm{AlgAuto, AlgRecursiveDoubling, AlgRing, AlgBruck, Algorithm(77)} {
		if a.String() == "" {
			t.Errorf("empty string for %d", uint8(a))
		}
	}
}

func TestAllgatherFrontDoor(t *testing.T) {
	for _, blk := range []int{16, 4096} {
		for _, p := range []int{8, 12} {
			runAllgather(t, p, blk, func(c *mpi.Comm, send, recv []byte) error {
				return Allgather(c, send, recv, AlgAuto)
			})
		}
	}
}

// randomMapping builds a random valid mapping fixing rank 0 (as the
// heuristics do).
func randomMapping(p int, rnd *rand.Rand) core.Mapping {
	m := core.Identity(p)
	for i := 1; i < p; i++ {
		j := 1 + rnd.Intn(i)
		m[i], m[j] = m[j], m[i]
	}
	return m
}

func TestReorderedAllgatherAllModes(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, p := range []int{2, 4, 8, 16} {
		for _, mode := range []sched.OrderMode{sched.InitComm, sched.EndShuffle} {
			for _, alg := range []Algorithm{AlgRecursiveDoubling, AlgRing, AlgBruck, AlgAuto} {
				if alg == AlgRecursiveDoubling && p&(p-1) != 0 {
					continue
				}
				m := randomMapping(p, rnd)
				blk := 16
				want := expected(p, blk)
				err := mpi.Run(p, func(c *mpi.Comm) error {
					re, err := NewReordered(c, m, mode)
					if err != nil {
						return err
					}
					send := input(c.Rank(), blk)
					// The reordered comm's processes contribute their
					// *original* inputs: process with old rank s holds
					// input(s); in the new comm it has rank inv[s].
					recv := make([]byte, p*blk)
					if err := re.Allgather(send, recv, alg); err != nil {
						return err
					}
					if !bytes.Equal(recv, want) {
						return fmt.Errorf("old rank %d: output out of order (mode=%v alg=%v p=%d)",
							c.Rank(), mode, alg, p)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d mode=%v alg=%v: %v", p, mode, alg, err)
				}
			}
		}
	}
}

func TestReorderedAllgatherIdentityMapping(t *testing.T) {
	const p, blk = 8, 32
	want := expected(p, blk)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		re, err := NewReordered(c, core.Identity(p), sched.InitComm)
		if err != nil {
			return err
		}
		recv := make([]byte, p*blk)
		if err := re.Allgather(input(c.Rank(), blk), recv, AlgRecursiveDoubling); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("identity reorder broke output")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReorderedAccessors(t *testing.T) {
	const p = 4
	m := core.Mapping{0, 2, 1, 3}
	err := mpi.Run(p, func(c *mpi.Comm) error {
		re, err := NewReordered(c, m, sched.InitComm)
		if err != nil {
			return err
		}
		if re.Comm() == nil {
			return fmt.Errorf("nil reordered comm")
		}
		if got := re.Mapping(); len(got) != p || got[1] != 2 {
			return fmt.Errorf("mapping accessor wrong: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalAllgather(t *testing.T) {
	type cfg = sched.HierarchicalConfig
	configs := []cfg{
		{Intra: sched.Linear, Inter: sched.InterRecursiveDoubling},
		{Intra: sched.Linear, Inter: sched.InterRing},
		{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling},
		{Intra: sched.NonLinear, Inter: sched.InterRing},
	}
	for _, c := range configs {
		for _, shape := range [][2]int{{1, 4}, {2, 4}, {4, 4}, {8, 2}, {4, 8}} {
			nodes, ppn := shape[0], shape[1]
			if c.Inter == sched.InterRecursiveDoubling && nodes&(nodes-1) != 0 {
				continue
			}
			p := nodes * ppn
			blk := 16
			want := expected(p, blk)
			nodeOf := func(worldRank int) int { return worldRank / ppn }
			err := mpi.Run(p, func(mc *mpi.Comm) error {
				send := input(mc.Rank(), blk)
				recv := make([]byte, p*blk)
				if err := HierarchicalAllgather(mc, send, recv, nodeOf, c); err != nil {
					return err
				}
				if !bytes.Equal(recv, want) {
					return fmt.Errorf("rank %d wrong hierarchical output", mc.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v nodes=%d ppn=%d: %v", c, nodes, ppn, err)
			}
		}
	}
}

func TestHierarchicalAllgatherCyclicGrouping(t *testing.T) {
	// Ranks spread cyclically over nodes (non-contiguous groups): blocks are
	// identified by contributor, so recursive doubling among the leaders
	// still delivers rank order.
	const nodes, ppn = 4, 2
	p := nodes * ppn
	blk := 8
	want := expected(p, blk)
	nodeOf := func(worldRank int) int { return worldRank % nodes }
	err := mpi.Run(p, func(c *mpi.Comm) error {
		send := input(c.Rank(), blk)
		recv := make([]byte, p*blk)
		cfg := sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRecursiveDoubling}
		if err := HierarchicalAllgather(c, send, recv, nodeOf, cfg); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			return fmt.Errorf("rank %d wrong output under cyclic grouping", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// hierarchicalErrors runs HierarchicalAllgather on a p-rank world with the
// default watchdog and returns every rank's error text.
func hierarchicalErrors(t *testing.T, p int, nodeOf func(int) int, cfg sched.HierarchicalConfig) []string {
	t.Helper()
	errs := make([]string, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		if err := HierarchicalAllgather(c, input(c.Rank(), 4), make([]byte, p*4), nodeOf, cfg); err != nil {
			errs[c.Rank()] = err.Error()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return errs
}

// requireSameError asserts all p ranks saw the same error mentioning want.
func requireSameError(t *testing.T, errs []string, want string) {
	t.Helper()
	for r, e := range errs {
		if !strings.Contains(e, want) {
			t.Errorf("rank %d: error %q does not mention %q", r, e, want)
		}
		if e != errs[0] {
			t.Errorf("rank %d saw %q, rank 0 saw %q", r, e, errs[0])
		}
	}
}

func TestHierarchicalRejectsNonUniformNodes(t *testing.T) {
	// 3 ranks on node 0, 1 on node 1. Every rank derives the groups locally,
	// so every rank must fail at once with the same error — none may sit in
	// a receive until the watchdog fires.
	nodeOf := func(worldRank int) int {
		if worldRank < 3 {
			return 0
		}
		return 1
	}
	start := time.Now()
	errs := hierarchicalErrors(t, 4, nodeOf, sched.HierarchicalConfig{Intra: sched.Linear, Inter: sched.InterRing})
	requireSameError(t, errs, "must be uniform")
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("rejection took %v: some rank waited on the watchdog", d)
	}
}

func TestHierarchicalRingRejectsCyclicGrouping(t *testing.T) {
	// The paper's "hierarchical allgather is not supported with cyclic
	// mapping": the ring among leaders forwards whole node-block ranges, which
	// exist only when every node holds a contiguous rank range.
	errs := hierarchicalErrors(t, 8, func(w int) int { return w % 4 },
		sched.HierarchicalConfig{Intra: sched.NonLinear, Inter: sched.InterRing})
	requireSameError(t, errs, "requires contiguous rank groups")
}
