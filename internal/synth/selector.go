package synth

import (
	"context"

	"repro/internal/memo"
	"repro/internal/sched"
)

// Selector serves compiled programs from a synthesis table to a front door.
// It memoises materialisation: the first lookup of a (family, p, bucket) key
// re-builds the stored recipe, proves the schedule fingerprint matches what
// the search priced, and compiles it with sched.Compile; every later lookup
// is a table read. The verdict on an entry that fails the proof is kept too,
// so a stale entry is refused without being rebuilt. A nil *Selector always
// misses, so front doors can hold one unconditionally.
type Selector struct {
	table *Table
	// programs holds nil for an entry whose recipe no longer reproduces its
	// fingerprint.
	programs memo.Table[selKey, *sched.Program]
}

type selKey struct {
	f      Family
	p      int
	bucket int
}

// NewSelector wraps a loaded table. The caller is responsible for checking
// Table.Topology against the machine it runs on (see TopologyKey).
func NewSelector(t *Table) *Selector {
	return &Selector{table: t}
}

// Table returns the wrapped table (nil for a nil selector).
func (s *Selector) Table() *Table {
	if s == nil {
		return nil
	}
	return s.table
}

// Program returns the synthesized program covering (family, rank count,
// payload), or false when the table has no entry, the stored recipe no
// longer reproduces its fingerprint, or the payload does not divide the
// schedule's block space. Hits and misses are counted on the synth_table_*
// metrics.
func (s *Selector) Program(f Family, p, payloadBytes int) (*sched.Program, bool) {
	if s == nil {
		return nil, false
	}
	e, ok := s.table.Lookup(f, p, payloadBytes)
	if !ok {
		synthTableMisses.Inc()
		return nil, false
	}
	prog, _ := s.programs.Do(context.Background(), selKey{f: f, p: p, bucket: e.SizeBucket}, func() (*sched.Program, error) {
		return materializeEntry(f, p, e), nil
	})
	if prog == nil {
		synthTableMisses.Inc()
		return nil, false
	}
	// Divisibility is per-payload, not per-bucket: a bucket covers a range
	// of sizes and only those that split evenly over the block space can
	// execute this schedule.
	if _, err := f.ProgramBlockBytes(prog, payloadBytes); err != nil {
		synthTableMisses.Inc()
		return nil, false
	}
	synthTableHits.Inc()
	return prog, true
}

// materializeEntry rebuilds and compiles a table entry, refusing it (nil) when
// the rebuilt schedule's fingerprint differs from the one the search
// recorded — the recipe vocabulary or a builder changed since the table was
// written.
func materializeEntry(f Family, p int, e *Entry) *sched.Program {
	sch, err := e.Recipe.Materialize(f, p)
	if err != nil || sched.Fingerprint(sch) != e.Schedule {
		return nil
	}
	prog, _ := sched.Compile(sch) // nil on failure
	return prog
}
