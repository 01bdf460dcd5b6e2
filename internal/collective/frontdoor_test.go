package collective

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/synth"
)

// putRecipe materialises rec for (f, p), stores it in tab keyed at payload
// bytes, and returns the schedule name the executor will be labelled with.
func putRecipe(t *testing.T, tab *synth.Table, f synth.Family, p, payload int, rec synth.Recipe) string {
	t.Helper()
	sch, err := rec.Materialize(f, p)
	if err != nil {
		t.Fatalf("materialize %s for %s/p=%d: %v", rec, f, p, err)
	}
	tab.Put(synth.Entry{
		Family:       f.String(),
		P:            p,
		SizeBucket:   synth.SizeBucket(payload),
		PayloadBytes: payload,
		Recipe:       rec,
		Schedule:     sched.Fingerprint(sch),
		Name:         sch.Name,
	})
	return sch.Name
}

// Closed-form data of the rooted front-door tests: broadcast byte i, rank r's
// gather contribution, and the scatter root's data byte i.
func bcastByte(i int) byte     { return byte(3*i + 1) }
func gatherByte(r, i int) byte { return byte(r*7 + i) }
func scatterByte(i int) byte   { return byte(5*i + 2) }

func fill(n int, at func(i int) byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = at(i)
	}
	return b
}

// rootedFrontDoors calls Broadcast, Gather and Scatter rooted at root on c
// with blk-byte blocks and checks every rank's bytes against the closed form.
func rootedFrontDoors(c *mpi.Comm, root, blk int) error {
	p, me := c.Size(), c.Rank()

	data := make([]byte, p*blk)
	if me == root {
		data = fill(p*blk, bcastByte)
	}
	if err := Broadcast(c, root, data); err != nil {
		return err
	}
	if !bytes.Equal(data, fill(p*blk, bcastByte)) {
		return fmt.Errorf("rank %d: broadcast from root %d corrupt", me, root)
	}

	var recv []byte
	if me == root {
		recv = make([]byte, p*blk)
	}
	if err := Gather(c, root, fill(blk, func(i int) byte { return gatherByte(me, i) }), recv); err != nil {
		return err
	}
	if me == root && !bytes.Equal(recv, fill(p*blk, func(i int) byte { return gatherByte(i/blk, i%blk) })) {
		return fmt.Errorf("gather to root %d corrupt", root)
	}

	var sdata []byte
	if me == root {
		sdata = fill(p*blk, scatterByte)
	}
	out := make([]byte, blk)
	if err := Scatter(c, root, sdata, out); err != nil {
		return err
	}
	if !bytes.Equal(out, fill(blk, func(i int) byte { return scatterByte(me*blk + i) })) {
		return fmt.Errorf("rank %d: scatter from root %d corrupt", me, root)
	}
	return nil
}

// rootedTable builds a selector serving root-0 entries for all three rooted
// families at (p, blk), and returns the programs' names.
func rootedTable(t *testing.T, p, blk int, bcast, gather, scatter string) (*synth.Selector, []string) {
	t.Helper()
	tab := &synth.Table{Topology: "frontdoor-test"}
	names := []string{
		putRecipe(t, tab, synth.Broadcast, p, p*blk, synth.Recipe{Alg: bcast}),
		putRecipe(t, tab, synth.Gather, p, blk, synth.Recipe{Alg: gather}),
		putRecipe(t, tab, synth.Scatter, p, blk, synth.Recipe{Alg: scatter}),
	}
	return synth.NewSelector(tab), names
}

// runConfigured runs body on a p-rank world configured with sel.
func runConfigured(p int, sel *synth.Selector, body func(c *mpi.Comm) error) error {
	return mpi.Run(p, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Synth: sel})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return body(c)
	})
}

// TestFrontDoorsByteIdentical: each rooted front door (broadcast, gather,
// scatter), configured with a synth table entry that differs structurally
// from the registry baseline, executes the synthesized program — observable
// on the schedule_executions_total label — and delivers the closed-form
// bytes.
func TestFrontDoorsByteIdentical(t *testing.T) {
	const p, blk = 16, 512
	sel, names := rootedTable(t, p, blk, "scatter-allgather-broadcast", "linear-gather", "binomial-scatter")
	hits0, _ := synth.TableCounters()
	exec0 := make([]uint64, len(names))
	for i, name := range names {
		exec0[i] = scheduleExecutions.With("algorithm", name).Value()
	}
	if err := runConfigured(p, sel, func(c *mpi.Comm) error { return rootedFrontDoors(c, 0, blk) }); err != nil {
		t.Fatal(err)
	}
	// Every rank consults the table once per front door.
	if hits1, _ := synth.TableCounters(); hits1 != hits0+3*p {
		t.Errorf("synth_table_hits_total advanced by %d, want %d", hits1-hits0, 3*p)
	}
	for i, label := range []string{"broadcast", "gather", "scatter"} {
		t.Run(label, func(t *testing.T) {
			if exec1 := scheduleExecutions.With("algorithm", names[i]).Value(); exec1 != exec0[i]+p {
				t.Errorf("schedule_executions_total{algorithm=%q} advanced by %d, want %d",
					names[i], exec1-exec0[i], p)
			}
		})
	}
}

// TestFrontDoorsOffRootServedByTable: table entries are rooted at rank 0,
// and the executor's rank rotation lets them serve any root — an off-root
// broadcast/gather/scatter must hit the table (it used to fall back to the
// hand-coded tree unconditionally) and deliver correct bytes, on a
// power-of-two and an odd communicator.
func TestFrontDoorsOffRootServedByTable(t *testing.T) {
	const blk, root = 256, 3
	for _, p := range []int{5, 8} {
		sel, names := rootedTable(t, p, blk, "scatter-allgather-broadcast", "linear-gather", "binomial-scatter")
		hits0, _ := synth.TableCounters()
		exec0 := scheduleExecutions.With("algorithm", names[0]).Value()
		err := runConfigured(p, sel, func(c *mpi.Comm) error { return rootedFrontDoors(c, root, blk) })
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if hits1, _ := synth.TableCounters(); hits1 != hits0+uint64(3*p) {
			t.Errorf("p=%d: synth_table_hits_total advanced by %d, want %d", p, hits1-hits0, 3*p)
		}
		if exec1 := scheduleExecutions.With("algorithm", names[0]).Value(); exec1 != exec0+uint64(p) {
			t.Errorf("p=%d: %s executions advanced by %d, want %d", p, names[0], exec1-exec0, p)
		}
	}
}

// TestFrontDoorsAnyRoot: with no table, the registry's baseline programs
// (rooted at rank 0) serve roots 0, 1 and p-1 on non-power-of-two
// communicators through the same rotation.
func TestFrontDoorsAnyRoot(t *testing.T) {
	for _, p := range []int{3, 5, 6, 12, 13} {
		for _, root := range []int{0, 1, p - 1} {
			err := mpi.Run(p, func(c *mpi.Comm) error { return rootedFrontDoors(c, root, 24) })
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

// callFrontDoor runs family f's front door on c with the given payload (the
// family's own sizing: per-rank block, whole buffer, or whole send row).
func callFrontDoor(c *mpi.Comm, f sched.FamilyID, payload int) error {
	p := c.Size()
	switch f {
	case sched.FamilyAllgather:
		return Allgather(c, make([]byte, payload), make([]byte, p*payload), AlgAuto)
	case sched.FamilyAllreduce:
		return Allreduce(c, make([]byte, payload), sumOp)
	case sched.FamilyBroadcast:
		return Broadcast(c, 0, make([]byte, payload))
	case sched.FamilyGather:
		return Gather(c, 0, make([]byte, payload), make([]byte, p*payload))
	case sched.FamilyScatter:
		return Scatter(c, 0, make([]byte, p*payload), make([]byte, payload))
	case sched.FamilyAlltoall:
		return Alltoall(c, make([]byte, payload), make([]byte, payload))
	}
	return fmt.Errorf("no front door for family %v", f)
}

// TestFrontDoorFollowsRegistryBaseline: with no synth table and nothing
// forced, every family's front door executes exactly the program its
// registry Baseline rule names — over rank counts on both sides of the
// power-of-two conditions and payloads straddling each rule's threshold.
// There is no second copy of any rule for this to keep in sync; it pins that
// the front doors consult the one there is.
func TestFrontDoorFollowsRegistryBaseline(t *testing.T) {
	sizes := map[sched.FamilyID][]int{
		sched.FamilyAllgather: {512, RingThresholdBytes, RingThresholdBytes + 1, 4096},
		sched.FamilyAllreduce: {4096, RabenseifnerThresholdBytes - 48, RabenseifnerThresholdBytes,
			RabenseifnerThresholdBytes + 4, 2 * RabenseifnerThresholdBytes},
		sched.FamilyBroadcast: {64, 4096},
		sched.FamilyGather:    {64, 4096},
		sched.FamilyScatter:   {64, 4096},
		sched.FamilyAlltoall:  {512, 1024, 1025, 4096}, // per pair; the payload is p of them
	}
	for _, fam := range sched.Families() {
		for _, p := range []int{1, 2, 6, 8, 16} {
			for _, n := range sizes[fam.ID] {
				if fam.Payload == sched.PayloadPerPair {
					n *= p
				}
				want := fam.Baseline(p, n)
				before := scheduleExecutions.With("algorithm", want).Value()
				if err := mpi.Run(p, func(c *mpi.Comm) error { return callFrontDoor(c, fam.ID, n) }); err != nil {
					t.Fatalf("%s p=%d n=%d: %v", fam.Name, p, n, err)
				}
				if got := scheduleExecutions.With("algorithm", want).Value() - before; got != uint64(p) {
					t.Errorf("%s p=%d n=%d: baseline %q executed on %d ranks, want %d", fam.Name, p, n, want, got, p)
				}
			}
		}
	}
}
