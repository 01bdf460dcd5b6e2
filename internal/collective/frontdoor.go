package collective

import (
	"repro/internal/mpi"
	"repro/internal/sched"
)

// Front-door selection: every collective in this package — flat, reordered
// and rooted — obtains its program from selectProgram, and whatever is
// selected runs on the schedule executor. There is no other selection rule
// and no other execution path.

// selectProgram returns the program a front door of family f executes for
// the given payload. A forcing Algorithm names the builder outright;
// otherwise the world's synth table entry covering (f, p, payload) wins, and
// on a miss the registry's Baseline rule names the builder. Builders resolve
// through the program table, so a warm call is one lookup.
func selectProgram(c *mpi.Comm, f sched.FamilyID, payloadBytes int, forced Algorithm) (*sched.Program, error) {
	fam, err := f.Desc()
	if err != nil {
		return nil, err
	}
	builder := forced.String()
	if forced == AlgAuto {
		if prog, ok := configOf(c).Synth.Program(f, c.Size(), payloadBytes); ok {
			return prog, nil
		}
		builder = fam.Baseline(c.Size(), payloadBytes)
	}
	return fam.BuildCached(builder, c.Size())
}

// tracedExecute wraps one front-door execution in the collective metrics
// scope and the family/program trace span.
func tracedExecute(c *mpi.Comm, famName, progName string, run func() error) error {
	defer beginCollective(progName)()
	name := famName + "/" + progName
	c.TraceEnter(name)
	defer c.TraceExit(name)
	return run()
}

// The rooted front doors. Compiled programs are rooted where their builder
// rooted them (rank 0 for every current builder and table entry); the
// executor's rank rotation serves any other root from the same program.

// Broadcast is the MPI_Bcast front door: root's data reaches every rank.
func Broadcast(c *mpi.Comm, root int, data []byte) error {
	prog, err := selectProgram(c, sched.FamilyBroadcast, len(data), AlgAuto)
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
	prog, err := selectProgram(c, sched.FamilyGather, len(send), AlgAuto)
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
	prog, err := selectProgram(c, sched.FamilyScatter, len(out), AlgAuto)
	if err != nil {
		return err
	}
	return tracedExecute(c, "scatter", prog.Name, func() error {
		return executeScatter(c, prog, root, data, out)
	})
}
