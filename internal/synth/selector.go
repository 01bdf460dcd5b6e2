package synth

import (
	"fmt"
	"sync"

	"repro/internal/sched"
)

// Selector serves compiled programs from a synthesis table to a front door.
// It memoises materialisation: the first lookup of a (family, p, bucket) key
// re-builds the stored recipe, proves the schedule fingerprint matches what
// the search priced, and compiles through the process-wide schedule cache;
// every later lookup is a map read. A nil *Selector always misses, so front
// doors can hold one unconditionally.
type Selector struct {
	table *Table

	mu    sync.Mutex
	cache map[selKey]*selEntry
}

type selKey struct {
	f      Family
	p      int
	bucket int
}

type selEntry struct {
	prog *sched.Program
	err  error
}

// NewSelector wraps a loaded table. The caller is responsible for checking
// Table.Topology against the machine it runs on (see TopologyKey).
func NewSelector(t *Table) *Selector {
	return &Selector{table: t, cache: make(map[selKey]*selEntry)}
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
	key := selKey{f: f, p: p, bucket: e.SizeBucket}
	s.mu.Lock()
	ce := s.cache[key]
	if ce == nil {
		ce = &selEntry{}
		ce.prog, ce.err = materializeEntry(f, p, e)
		s.cache[key] = ce
	}
	s.mu.Unlock()
	if ce.err != nil {
		synthTableMisses.Inc()
		return nil, false
	}
	// Divisibility is per-payload, not per-bucket: a bucket covers a range
	// of sizes and only those that split evenly over the block space can
	// execute this schedule.
	if _, err := f.ProgramBlockBytes(ce.prog, payloadBytes); err != nil {
		synthTableMisses.Inc()
		return nil, false
	}
	synthTableHits.Inc()
	return ce.prog, true
}

// materializeEntry rebuilds and compiles a table entry, refusing it when the
// rebuilt schedule's fingerprint differs from the one the search recorded —
// the recipe vocabulary or a builder changed since the table was written.
// The Selector's per-(family, p, bucket) memo is the compiled program's only
// cache.
func materializeEntry(f Family, p int, e *Entry) (*sched.Program, error) {
	sch, err := e.Recipe.Materialize(f, p)
	if err != nil {
		return nil, fmt.Errorf("synth: table entry %s/p=%d/b=%d: %w", e.Family, e.P, e.SizeBucket, err)
	}
	if fp := sched.Fingerprint(sch); fp != e.Schedule {
		return nil, fmt.Errorf("synth: table entry %s/p=%d/b=%d: recipe %s rebuilds fingerprint %s, table recorded %s",
			e.Family, e.P, e.SizeBucket, e.Recipe, fp, e.Schedule)
	}
	return sched.Compile(sch)
}
