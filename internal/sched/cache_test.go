package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestProgramTableBuildsOncePerKey: however many ranks race to one cold
// (family, builder, p), the schedule is built and compiled once — one miss —
// and everyone else waits for and shares that program, counted as hits. A
// failing build is not remembered: the next caller builds again.
func TestProgramTableBuildsOncePerKey(t *testing.T) {
	ResetCompileCache()
	const callers = 64
	var builds atomic.Int32
	boom := errors.New("boom")
	fam := &Family{ID: FamilyAllgather, Name: "allgather", Builders: map[string]Builder{
		"counted-ring": func(p int) (*Schedule, error) {
			builds.Add(1)
			return Ring(p)
		},
		"fails-once": func(p int) (*Schedule, error) {
			if builds.Add(1) == 2 {
				return nil, boom
			}
			return Ring(p)
		},
	}}
	h0, m0 := CompileCacheCounters()
	progs := make([]*Program, callers)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := fam.BuildCached("counted-ring", 24)
			if err != nil {
				t.Error(err)
			}
			progs[i] = prog
		}()
	}
	wg.Wait()
	h1, m1 := CompileCacheCounters()
	if builds.Load() != 1 || m1-m0 != 1 || h1-h0 != callers-1 {
		t.Errorf("%d callers of one cold key: %d builds, %d misses, %d hits; want 1, 1, %d",
			callers, builds.Load(), m1-m0, h1-h0, callers-1)
	}
	for i, prog := range progs {
		if prog == nil || prog != progs[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p", i, prog, progs[0])
		}
	}

	if _, err := fam.BuildCached("fails-once", 24); err != boom {
		t.Fatalf("failing build returned %v, want %v", err, boom)
	}
	if prog, err := fam.BuildCached("fails-once", 24); err != nil || prog == nil {
		t.Errorf("the call after a failed build got (%p, %v), want a fresh successful build", prog, err)
	}
}
