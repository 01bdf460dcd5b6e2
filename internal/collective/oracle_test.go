package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
)

// The closed-form oracle. Every family's expected output is a function of
// the inputs alone (SNIPPETS.md 1, compute_expected_data), so the executor is
// checked against arithmetic that shares nothing with package sched — no
// peer, owner or block-range helper — rather than against a second
// implementation of the same schedule.
//
// The harness contract: rank r enters with p blocks of blk bytes, byte i of
// block d being cell(r, d, i). A family reads the part of that buffer its
// MPI signature takes (one block for PayloadBlock senders, all p otherwise)
// and writes into a p-block out buffer; reductions combine with byte-wise
// addition.

func cell(r, d, i int) byte { return byte(r*31 + d*7 + i) }

// oracleInput is rank r's harness input.
func oracleInput(r, p, blk int) []byte {
	in := make([]byte, p*blk)
	for d := 0; d < p; d++ {
		for i := 0; i < blk; i++ {
			in[d*blk+i] = cell(r, d, i)
		}
	}
	return in
}

// blocks renders n blocks of blk bytes from a per-(block, byte) formula.
func blocks(n, blk int, at func(b, i int) byte) []byte {
	out := make([]byte, n*blk)
	for b := 0; b < n; b++ {
		for i := 0; i < blk; i++ {
			out[b*blk+i] = at(b, i)
		}
	}
	return out
}

func addBytes(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// familyOracle is one family's row of the registry-driven walk: how the
// executor enters a compiled program of the family under the harness
// contract, and what rank me must then hold. exec returns the slice of out
// the collective defined on this rank (nil when the rank receives nothing).
type familyOracle struct {
	rooted bool
	exec   func(c *mpi.Comm, prog *sched.Program, root int, in, out []byte, blk int) ([]byte, error)
	want   func(me, p, blk, root int) []byte
}

// familyOracles must have a row for every sched.Families() entry; the walk
// and the fuzz target fail on a family without one, so registering a seventh
// family without saying what it computes cannot pass.
var familyOracles = map[sched.FamilyID]familyOracle{
	sched.FamilyAllgather: {
		exec: func(c *mpi.Comm, prog *sched.Program, _ int, in, out []byte, blk int) ([]byte, error) {
			return out, ExecuteAllgather(c, prog, in[:blk], out, nil)
		},
		want: func(_, p, blk, _ int) []byte {
			return blocks(p, blk, func(s, i int) byte { return cell(s, 0, i) })
		},
	},
	sched.FamilyAllreduce: {
		exec: func(c *mpi.Comm, prog *sched.Program, _ int, in, out []byte, _ int) ([]byte, error) {
			copy(out, in)
			return out, ExecuteAllreduce(c, prog, out, addBytes)
		},
		want: func(_, p, blk, _ int) []byte {
			// Sum over r of (31r + 7d + i) = 31·p(p-1)/2 + p·(7d + i), mod 256.
			return blocks(p, blk, func(d, i int) byte { return byte(31*p*(p-1)/2 + p*(7*d+i)) })
		},
	},
	sched.FamilyBroadcast: {
		rooted: true,
		exec: func(c *mpi.Comm, prog *sched.Program, root int, in, out []byte, _ int) ([]byte, error) {
			if c.Rank() == root {
				copy(out, in)
			}
			return out, executeBroadcast(c, prog, root, out)
		},
		want: func(_, p, blk, root int) []byte {
			return blocks(p, blk, func(d, i int) byte { return cell(root, d, i) })
		},
	},
	sched.FamilyGather: {
		rooted: true,
		exec: func(c *mpi.Comm, prog *sched.Program, root int, in, out []byte, blk int) ([]byte, error) {
			if c.Rank() != root {
				out = nil
			}
			return out, ExecuteGather(c, prog, root, in[:blk], out)
		},
		want: func(_, p, blk, _ int) []byte {
			return blocks(p, blk, func(s, i int) byte { return cell(s, 0, i) })
		},
	},
	sched.FamilyScatter: {
		rooted: true,
		exec: func(c *mpi.Comm, prog *sched.Program, root int, in, out []byte, blk int) ([]byte, error) {
			if c.Rank() != root {
				in = nil
			}
			return out[:blk], executeScatter(c, prog, root, in, out[:blk])
		},
		want: func(me, _, blk, root int) []byte {
			return blocks(1, blk, func(_, i int) byte { return cell(root, me, i) })
		},
	},
	sched.FamilyAlltoall: {
		exec: func(c *mpi.Comm, prog *sched.Program, _ int, in, out []byte, _ int) ([]byte, error) {
			return out, ExecuteAlltoall(c, prog, in, out)
		},
		want: func(me, p, blk, _ int) []byte {
			return blocks(p, blk, func(s, i int) byte { return cell(s, me, i) })
		},
	},
}

// oracleFor returns fam's oracle row or fails the test.
func oracleFor(t testing.TB, fam *sched.Family) familyOracle {
	t.Helper()
	o, ok := familyOracles[fam.ID]
	if !ok {
		t.Fatalf("family %q is registered in sched but has no closed-form oracle / executor row in familyOracles", fam.Name)
	}
	return o
}

// checkFamily runs one compiled program of fam on a p-rank world — on the
// world communicator itself (mode 0) or on a reordered copy of it (reversal,
// rotation), which exercises the executor's member translation — and
// compares every rank's output with the closed form. Ranks are identified by
// their rank in the communicator the collective runs on.
func checkFamily(fam *sched.Family, prog *sched.Program, o familyOracle, p, blk, root int, mode uint8) error {
	return mpi.Run(p, func(c *mpi.Comm) error {
		if mode%3 != 0 {
			re, err := c.Reorder(reorderMapping(p, mode))
			if err != nil {
				return err
			}
			c = re
		}
		me := c.Rank()
		out := bytes.Repeat([]byte{0xEE}, p*blk)
		got, err := o.exec(c, prog, root, oracleInput(me, p, blk), out, blk)
		if err != nil {
			return err
		}
		if got == nil { // nothing is defined on this rank (gather off the root)
			return nil
		}
		if want := o.want(me, p, blk, root); !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: %s/%s output differs from the closed form\n got %x\nwant %x",
				me, fam.Name, prog.Name, got, want)
		}
		return nil
	})
}

// walkRoots is the root set of the walk for p ranks: 0, 1 and p-1.
func walkRoots(p int, rooted bool) []int {
	roots := []int{0}
	if rooted {
		for _, r := range []int{1, p - 1} {
			if r < p && r > roots[len(roots)-1] {
				roots = append(roots, r)
			}
		}
	}
	return roots
}

// TestFamilyExecutorMatchesOracle is the registry-wide correctness suite:
// every base builder of every registered family, over power-of-two, odd and
// composite rank counts, every root of {0, 1, p-1} for the rooted families,
// on plain and reordered communicators, must produce exactly the closed-form
// output. Builders that reject a shape (recursive doubling on non-powers of
// two, neighbor exchange on odd sizes) are skipped at that shape — the error
// is the contract.
func TestFamilyExecutorMatchesOracle(t *testing.T) {
	ps := []int{1, 2, 3, 5, 8, 12, 16, 64}
	if testing.Short() {
		ps = ps[:len(ps)-1]
	}
	for _, fam := range sched.Families() {
		o := oracleFor(t, fam)
		for _, name := range fam.BuilderNames() {
			for _, p := range ps {
				prog, err := fam.BuildCached(name, p)
				if err != nil {
					continue // builder rejects this shape by contract
				}
				const blk = 3
				for _, root := range walkRoots(p, o.rooted) {
					for mode := uint8(0); mode < 3; mode++ {
						if err := checkFamily(fam, prog, o, p, blk, root, mode); err != nil {
							t.Fatalf("%s/%s p=%d root=%d mode=%d: %v", fam.Name, name, p, root, mode, err)
						}
					}
				}
			}
		}
	}
}

// FuzzExecutorFamily replays fuzzer-chosen (family, builder, rank count,
// block size, root, reordering) combinations over every registered family
// against the closed form. Run under -race it doubles as a concurrency test
// of the shared compiled program.
func FuzzExecutorFamily(f *testing.F) {
	for fam := range sched.Families() {
		f.Add(uint8(fam), uint8(0), uint8(7), uint8(8), uint8(3), uint8(0))
		f.Add(uint8(fam), uint8(1), uint8(4), uint8(1), uint8(4), uint8(1))
		f.Add(uint8(fam), uint8(2), uint8(11), uint8(16), uint8(0), uint8(2))
	}
	f.Fuzz(func(t *testing.T, famRaw, builderRaw, pRaw, blkRaw, rootRaw, modeRaw uint8) {
		fams := sched.Families()
		fam := fams[int(famRaw)%len(fams)]
		o := oracleFor(t, fam)
		names := fam.BuilderNames()
		name := names[int(builderRaw)%len(names)]
		p := int(pRaw)%16 + 1
		blk := int(blkRaw)%32 + 1
		root := 0
		if o.rooted {
			root = int(rootRaw) % p
		}
		prog, err := fam.BuildCached(name, p)
		if err != nil {
			t.Skipf("%s rejects p=%d: %v", name, p, err)
		}
		if err := checkFamily(fam, prog, o, p, blk, root, modeRaw); err != nil {
			t.Fatalf("%s/%s p=%d blk=%d root=%d mode=%d: %v", fam.Name, name, p, blk, root, modeRaw%3, err)
		}
	})
}
