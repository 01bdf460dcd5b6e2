package sched

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/memo"
	"repro/internal/metrics"
)

// compileMetrics is the compiler's and the program tables' instrumentation
// on the default registry. Its families are registered the first time a
// program table or the compiler records, so a process that links sched and
// never compiles (mapd) exposes none of them.
type compileMetrics struct {
	hits, misses              *metrics.Counter
	sizedSeconds, execSeconds *metrics.Histogram
}

var schedMetrics = sync.OnceValue(func() *compileMetrics {
	seconds := metrics.NewHistogramVec("schedule_compile_seconds",
		"Schedule compile latency by view (sized pricing view vs expanded executable view).",
		metrics.DurationOpts, "view")
	return &compileMetrics{
		hits: metrics.NewCounter("schedule_cache_hits_total",
			"Compiled-schedule cache hits."),
		misses: metrics.NewCounter("schedule_cache_misses_total",
			"Compiled-schedule cache misses (fresh compiles)."),
		sizedSeconds: seconds.With("view", "sized"),
		execSeconds:  seconds.With("view", "exec"),
	}
})

// Fingerprint returns a collision-resistant key for a schedule's full
// structural content: name, rank/block/root/init geometry, and every stage's
// repeat, reduce flag and transfer list. Two schedules with equal
// fingerprints compile to interchangeable programs. Rank reordering does not
// change a schedule (it changes the layout, applied at pricing time), so
// topology does not enter the key; order-preservation prologues do change
// the Pre stages and therefore the fingerprint.
func Fingerprint(s *Schedule) string {
	h := sha256.New()
	// Fields are staged in a 4 KiB buffer and handed to the hash in whole
	// runs: one hash.Write per 8-byte field cost more than the hashing itself
	// on million-transfer schedules. The byte stream is unchanged.
	buf := make([]byte, 0, 4096)
	room := func(n int) {
		if len(buf)+n > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	word := func(v int64) {
		room(8)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	tag := func(b byte) {
		room(1)
		buf = append(buf, b)
	}
	h.Write([]byte(s.Name))
	tag(0)
	word(int64(s.P))
	word(int64(s.NumBlocks()))
	word(int64(s.Root))
	word(int64(s.Init))
	word(int64(s.PostCopyBlocks))
	section := func(stages []Stage, marker byte) {
		tag(marker)
		word(int64(len(stages)))
		for i := range stages {
			st := &stages[i]
			word(int64(st.Repeats()))
			reduce := byte(0)
			if st.Reduce {
				reduce = 1
			}
			tag(reduce)
			word(int64(len(st.Transfers)))
			for j := range st.Transfers {
				tr := &st.Transfers[j]
				// A transfer record is five words, staged behind one check.
				room(40)
				n := len(buf)
				buf = buf[:n+40]
				rec := buf[n:]
				binary.LittleEndian.PutUint64(rec[0:], uint64(tr.Src))
				binary.LittleEndian.PutUint64(rec[8:], uint64(tr.Dst))
				binary.LittleEndian.PutUint64(rec[16:], uint64(tr.First))
				binary.LittleEndian.PutUint64(rec[24:], uint64(tr.N))
				binary.LittleEndian.PutUint64(rec[32:], uint64(tr.Mode))
				if tr.Mode == List {
					// Only List transfers hash their block list, so every
					// pre-existing schedule keeps its fingerprint.
					for _, b := range tr.Blocks {
						word(int64(b))
					}
				}
			}
		}
	}
	section(s.Pre, 'p')
	section(s.Stages, 'm')
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// programTableCap bounds each program table; the working set of a figure run
// or of a world's front doors (a few algorithms x a few shapes) fits
// comfortably.
const programTableCap = 64

// ProgramTable is a memo.Table of compiled programs bounded to
// programTableCap entries. A caller that builds counts one
// schedule_cache_misses_total, one that shares a build or a kept program one
// schedule_cache_hits_total; every instance is emptied by ResetCompileCache.
// It is generic so each key shape gets its own typed map and a warm lookup
// allocates nothing.
type ProgramTable[K comparable] struct{ programs memo.Table[K, *Program] }

// programTables lists every table's reset hook. Tables are package-level
// variables, so the list is complete before main runs and read-only after.
var programTables []func()

// NewProgramTable returns an empty table registered with ResetCompileCache.
// Call it from a package-level variable initialiser.
func NewProgramTable[K comparable]() *ProgramTable[K] {
	t := &ProgramTable[K]{}
	t.programs.MaxEntries = programTableCap
	programTables = append(programTables, t.programs.Reset)
	return t
}

// Lookup returns the program kept under key, counting a hit; it never builds.
func (t *ProgramTable[K]) Lookup(key K) (*Program, bool) {
	prog, ok := t.programs.Get(key)
	if ok {
		schedMetrics().hits.Inc()
	}
	return prog, ok
}

// Get returns the program filed under key, building it with build on first
// use.
func (t *ProgramTable[K]) Get(key K, build func() (*Program, error)) (*Program, error) {
	built := false
	prog, err := t.programs.Do(context.Background(), key, func() (*Program, error) {
		built = true
		return build()
	})
	if built {
		schedMetrics().misses.Inc()
	} else {
		schedMetrics().hits.Inc()
	}
	return prog, err
}

// builderKey addresses a program by the registry builder call that produces
// its schedule — what lets a front door that names (family, builder, p)
// reach its program with one lookup, never building or hashing a schedule.
type builderKey struct {
	family  FamilyID
	builder string
	p       int
}

var (
	programsByBuilder     = NewProgramTable[builderKey]()
	programsByFingerprint = NewProgramTable[string]()
)

// CompileCached compiles s through the process-wide program table keyed by
// the schedule fingerprint, so repeated pricings of one schedule shape reuse
// one Program — including its lazily built executable view. It serves the
// callers that only hold a schedule; runtime front doors name a registry
// builder and go through Family.BuildCached, which hashes nothing.
func CompileCached(s *Schedule) (*Program, error) {
	return programsByFingerprint.Get(Fingerprint(s), func() (*Program, error) { return Compile(s) })
}

// ResetCompileCache empties every program table (cold-compile benchmarks and
// tests; "a new job is a new process").
func ResetCompileCache() {
	for _, reset := range programTables {
		reset()
	}
}

// CompileCacheCounters returns the cumulative hit and miss counts.
func CompileCacheCounters() (hits, misses uint64) {
	m := schedMetrics()
	return m.hits.Value(), m.misses.Value()
}
