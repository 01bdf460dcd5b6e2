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

// compileCacheCap bounds the cache in keys (a program reached through
// Family.BuildCached is filed under two); the working set of a figure run or
// of a world's front doors (a few algorithms x a few shapes) fits comfortably.
const compileCacheCap = 64

// cacheKey addresses a cached program either by its schedule's structural
// fingerprint, or by the registry builder call that produces the schedule.
// The second form is what lets a front door that names (family, builder, p)
// reach its program with one lookup instead of rebuilding and hashing the
// schedule on every rank of every call.
type cacheKey struct {
	fingerprint string
	family      FamilyID
	builder     string
	p           int
}

type cacheEntry struct {
	key  cacheKey
	prog *Program
}

var compileCache = struct {
	mu    sync.Mutex
	ll    *list.List
	byKey map[cacheKey]*list.Element
}{ll: list.New(), byKey: make(map[cacheKey]*list.Element)}

// cachedProgram returns the program stored under key, counting the hit or
// the miss.
func cachedProgram(key cacheKey) (*Program, bool) {
	compileCache.mu.Lock()
	e, ok := compileCache.byKey[key]
	if !ok {
		compileCache.mu.Unlock()
		scheduleCacheMisses.Inc()
		return nil, false
	}
	compileCache.ll.MoveToFront(e)
	prog := e.Value.(*cacheEntry).prog
	compileCache.mu.Unlock()
	scheduleCacheHits.Inc()
	return prog, true
}

// storeProgram files prog under key and returns the program the cache holds
// for it — a concurrent caller may have stored the same key first, and
// sharing its program means the executable view is built only once.
func storeProgram(key cacheKey, prog *Program) *Program {
	compileCache.mu.Lock()
	defer compileCache.mu.Unlock()
	if e, ok := compileCache.byKey[key]; ok {
		compileCache.ll.MoveToFront(e)
		return e.Value.(*cacheEntry).prog
	}
	compileCache.byKey[key] = compileCache.ll.PushFront(&cacheEntry{key: key, prog: prog})
	for compileCache.ll.Len() > compileCacheCap {
		oldest := compileCache.ll.Back()
		compileCache.ll.Remove(oldest)
		delete(compileCache.byKey, oldest.Value.(*cacheEntry).key)
	}
	return prog
}

// CompileCached compiles s through a bounded process-wide LRU keyed by the
// schedule fingerprint, so repeated collectives (and repeated pricings of
// the same schedule shape) reuse one Program — including its lazily built
// executable view. Compilation errors are not cached.
func CompileCached(s *Schedule) (*Program, error) {
	key := cacheKey{fingerprint: Fingerprint(s)}
	if prog, ok := cachedProgram(key); ok {
		return prog, nil
	}
	prog, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return storeProgram(key, prog), nil
}

// ResetCompileCache empties the cache (cold-compile benchmarks and tests).
func ResetCompileCache() {
	compileCache.mu.Lock()
	defer compileCache.mu.Unlock()
	compileCache.ll = list.New()
	compileCache.byKey = make(map[cacheKey]*list.Element)
}

// CompileCacheCounters returns the cumulative hit and miss counts.
func CompileCacheCounters() (hits, misses uint64) {
	return scheduleCacheHits.Value(), scheduleCacheMisses.Value()
}
