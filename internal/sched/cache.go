package sched

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/metrics"
)

// Cache instrumentation on the default registry, exported through every
// /metrics endpoint that serves it (mapd included).
var (
	scheduleCacheHits = metrics.NewCounter("schedule_cache_hits_total",
		"Compiled-schedule cache hits.")
	scheduleCacheMisses = metrics.NewCounter("schedule_cache_misses_total",
		"Compiled-schedule cache misses (fresh compiles).")
	scheduleCompileSeconds = metrics.NewHistogramVec("schedule_compile_seconds",
		"Schedule compile latency by view (sized pricing view vs expanded executable view).",
		metrics.DurationOpts, "view")
)

func init() {
	scheduleCompileSeconds.With("view", "sized")
	scheduleCompileSeconds.With("view", "exec")
}

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
			for _, tr := range st.Transfers {
				word(int64(tr.Src))
				word(int64(tr.Dst))
				word(int64(tr.First))
				word(int64(tr.N))
				word(int64(tr.Mode))
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

// ProgramTable is a bounded LRU from a comparable key to a program built
// under a per-key sync.Once: the first caller of a cold key builds (one
// schedule_cache_misses_total), every other caller — concurrent ranks of the
// same collective call included — waits for and shares that result (one
// schedule_cache_hits_total each). A failed build is forgotten, so the next
// caller retries. The table is generic so each key shape gets its own typed
// map and a warm lookup allocates nothing; every instance counts on the same
// two counters and is emptied by ResetCompileCache.
type ProgramTable[K comparable] struct {
	mu    sync.Mutex
	ll    *list.List // of *tableEntry[K], most recently used first
	byKey map[K]*list.Element
}

type tableEntry[K comparable] struct {
	key  K
	once sync.Once
	prog *Program
	err  error
}

// programTables lists every table's reset hook. Tables are package-level
// variables, so the list is complete before main runs and read-only after.
var programTables []func()

// NewProgramTable returns an empty table registered with ResetCompileCache.
// Call it from a package-level variable initialiser.
func NewProgramTable[K comparable]() *ProgramTable[K] {
	t := &ProgramTable[K]{ll: list.New(), byKey: make(map[K]*list.Element)}
	programTables = append(programTables, t.reset)
	return t
}

func (t *ProgramTable[K]) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ll = list.New()
	clear(t.byKey)
}

// Get returns the program filed under key, building it with build on first
// use.
func (t *ProgramTable[K]) Get(key K, build func() (*Program, error)) (*Program, error) {
	t.mu.Lock()
	el, hit := t.byKey[key]
	if hit {
		t.ll.MoveToFront(el)
	} else {
		el = t.ll.PushFront(&tableEntry[K]{key: key})
		t.byKey[key] = el
		if t.ll.Len() > programTableCap {
			oldest := t.ll.Back()
			t.ll.Remove(oldest)
			delete(t.byKey, oldest.Value.(*tableEntry[K]).key)
		}
	}
	t.mu.Unlock()
	if hit {
		scheduleCacheHits.Inc()
	} else {
		scheduleCacheMisses.Inc()
	}
	e := el.Value.(*tableEntry[K])
	e.once.Do(func() { e.prog, e.err = build() })
	if e.err != nil {
		t.mu.Lock()
		if t.byKey[key] == el {
			t.ll.Remove(el)
			delete(t.byKey, key)
		}
		t.mu.Unlock()
	}
	return e.prog, e.err
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
	return scheduleCacheHits.Value(), scheduleCacheMisses.Value()
}
