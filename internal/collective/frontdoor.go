package collective

import (
	"repro/internal/mpi"
	"repro/internal/sched"
)

// Front-door selection: every collective in this package — flat, reordered
// and rooted — obtains its program from selectProgram, and whatever is
// selected runs on the schedule executor. There is no other selection rule
// and no other execution path.

// selectProgram returns the program a front door of family f executes over p
// ranks for the given payload: p is the communicator's size, except for a
// composition's inner phase (the hierarchical allreduce's leaders). A forcing
// Algorithm names the builder outright; otherwise the world's synth table
// entry covering (f, p, payload) wins, and on a miss the registry's Baseline
// rule names the builder. Builders resolve through the program table, so a
// warm call is one lookup.
func selectProgram(c *mpi.Comm, f sched.FamilyID, p, payloadBytes int, forced Algorithm) (*sched.Program, error) {
	fam, err := f.Desc()
	if err != nil {
		return nil, err
	}
	builder := forced.String()
	if forced == AlgAuto {
		if prog, ok := configOf(c).Synth.Program(f, p, payloadBytes); ok {
			return prog, nil
		}
		builder = fam.Baseline(p, payloadBytes)
	}
	return fam.BuildCached(builder, p)
}

// tracedExecute wraps one execution in the trace span fam/name. The span's
// string is built only when c is tracing, so an untraced call allocates
// nothing for it (mpi.Comm.Tracing).
func tracedExecute(c *mpi.Comm, fam, name string, run func() error) error {
	if !c.Tracing() {
		return run()
	}
	span := fam + "/" + name
	c.TraceEnter(span)
	defer c.TraceExit(span)
	return run()
}

// The rooted front doors. Compiled programs are rooted where their builder
// rooted them (rank 0 for every current builder and table entry); the
// executor's rank rotation serves any other root from the same program.

// Broadcast is the MPI_Bcast front door: root's data reaches every rank.
func Broadcast(c *mpi.Comm, root int, data []byte) error {
	prog, err := selectProgram(c, sched.FamilyBroadcast, c.Size(), len(data), AlgAuto)
	if err != nil {
		return err
	}
	return tracedExecute(c, "bcast", prog.Name, func() error {
		return executeBroadcast(c, prog, root, data)
	})
}

// Gather is the MPI_Gather front door: every rank contributes send and the
// root's recv (one block per rank) ends up in rank order.
func Gather(c *mpi.Comm, root int, send, recv []byte) error {
	prog, err := selectProgram(c, sched.FamilyGather, c.Size(), len(send), AlgAuto)
	if err != nil {
		return err
	}
	return tracedExecute(c, "gather", prog.Name, func() error {
		return ExecuteGather(c, prog, root, send, recv)
	})
}

// Scatter is the MPI_Scatter front door: the root's data (one block per
// rank) is distributed so rank r receives block r in out.
func Scatter(c *mpi.Comm, root int, data, out []byte) error {
	prog, err := selectProgram(c, sched.FamilyScatter, c.Size(), len(out), AlgAuto)
	if err != nil {
		return err
	}
	return tracedExecute(c, "scatter", prog.Name, func() error {
		return executeScatter(c, prog, root, data, out)
	})
}
