package collective

import (
	"repro/internal/mpi"
	"repro/internal/sched"
)

// Front-door selection shared by every family whose choice is "synth table,
// else the registry's baseline rule" (broadcast, gather, scatter,
// all-to-all; allgather and allreduce add their Tuning thresholds on top).
// Whatever is selected runs on the schedule executor — there is no other
// execution path.

// synthProgram consults the world's synthesized selection table for family f
// at the given payload.
func synthProgram(c *mpi.Comm, f sched.FamilyID, payloadBytes int) (*sched.Program, bool) {
	if payloadBytes <= 0 {
		return nil, false
	}
	return configOf(c).Synth.Program(f, c.Size(), payloadBytes)
}

// selectProgram returns the program a front door of family f executes for
// the given payload: the world's synth table entry when one covers (f, p,
// payload), the registry's hand-coded baseline compiled through the schedule
// cache otherwise.
func selectProgram(c *mpi.Comm, f sched.FamilyID, payloadBytes int) (*sched.Program, error) {
	if prog, ok := synthProgram(c, f, payloadBytes); ok {
		return prog, nil
	}
	fam, err := f.Desc()
	if err != nil {
		return nil, err
	}
	return fam.BuildCached(fam.Baseline(c.Size(), payloadBytes), c.Size())
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
	prog, err := selectProgram(c, sched.FamilyBroadcast, len(data))
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
	prog, err := selectProgram(c, sched.FamilyGather, len(send))
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
	prog, err := selectProgram(c, sched.FamilyScatter, len(out))
	if err != nil {
		return err
	}
	return tracedExecute(c, "scatter", prog.Name, func() error {
		return executeScatter(c, prog, root, data, out)
	})
}
