package memo

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFailureIsTheBuildersAlone pins the table under the deadline contract: a
// waiter with budget left retries a failed build itself, a waiter without
// reports its own expiry without waiting, and a failure leaves no slot
// behind.
func TestFailureIsTheBuildersAlone(t *testing.T) {
	var om Table[string, int]
	building, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := om.Do(context.Background(), "k", func() (int, error) {
			builds.Add(1)
			close(building)
			<-release
			return 0, context.DeadlineExceeded
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("builder: err = %v, want its own failure", err)
		}
	}()
	<-building

	spent, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := om.Do(spent, "k", func() (int, error) { t.Error("a spent waiter built"); return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("spent waiter: err = %v, want its own context's", err)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := om.Do(context.Background(), "k", func() (int, error) { builds.Add(1); return 7, nil })
		if v != 7 || err != nil {
			t.Errorf("live waiter: (%d, %v), want its own retry's (7, nil)", v, err)
		}
	}()
	// The live waiter joins the slot (or arrives after the failure: either
	// way it must end up building).
	time.Sleep(time.Millisecond)
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 2 {
		t.Errorf("%d builds, want the failed one and the waiter's retry", n)
	}
	if v, err := om.Do(context.Background(), "k", func() (int, error) { t.Error("rebuilt a held value"); return 0, nil }); v != 7 || err != nil {
		t.Errorf("memoised value: (%d, %v), want (7, nil)", v, err)
	}
	if _, err := om.Do(context.Background(), "bad", func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Error("a failed build reported success")
	}
	if kept, building := om.Len(); kept+building != 1 {
		t.Errorf("map holds %d slots, want only the successful key", kept+building)
	}
}

// sized is a test value whose approximate size the test sets.
type sized struct {
	key  int
	size int64
}

func sizedTable(maxEntries int, maxBytes int64, evictions *int) *Table[int, *sized] {
	t := &Table[int, *sized]{MaxEntries: maxEntries, MaxBytes: maxBytes}
	t.Size = func(v *sized) int64 { return v.size }
	t.OnEvict = func() { *evictions++ }
	return t
}

// TestRandomizedBounds drives one bounded table through a seeded random
// sequence of successful, failing and shared-but-not-kept builds, puts, gets,
// growths and resets. After every step the kept entries stay within both
// bounds and add up to Bytes, a failed or unkept build leaves nothing behind,
// the newest entry is kept whenever it fits, and every caller still holding
// an entry — dropped by the bounds or not — is served its value.
func TestRandomizedBounds(t *testing.T) {
	const maxEntries, maxBytes, keys = 6, 100, 16
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var evictions int
		tb := sizedTable(maxEntries, maxBytes, &evictions)
		type holder struct {
			e *Entry[int, *sized]
			v *sized
		}
		var holders []holder
		fresh := func(k int) *sized { return &sized{key: k, size: 1 + rng.Int63n(maxBytes*5/4)} }
		for step := 0; step < 400; step++ {
			k := rng.Intn(keys)
			_, wasKept := tb.Get(k)
			kept0, _ := tb.Len()
			switch op := rng.Intn(7); op {
			case 0, 1: // a build that succeeds
				want := fresh(k)
				v, err := tb.Do(ctx, k, func() (*sized, error) { return want, nil })
				if err != nil || v.key != k || !wasKept && v != want {
					t.Fatalf("seed %d step %d: Do(%d) = (%+v, %v)", seed, step, k, v, err)
				}
				if got, ok := tb.Get(k); ok != (v.size <= maxBytes) || ok && got != v {
					t.Fatalf("seed %d step %d: newest entry %d (%d bytes) kept=%v", seed, step, k, v.size, ok)
				}
			case 2: // a build that fails
				_, err := tb.Do(ctx, k, func() (*sized, error) { return nil, errors.New("boom") })
				if wasKept != (err == nil) {
					t.Fatalf("seed %d step %d: failing build of %d (kept %v) returned %v", seed, step, k, wasKept, err)
				}
				if _, ok := tb.Get(k); ok != wasKept {
					t.Fatalf("seed %d step %d: a failed build of %d left an entry behind", seed, step, k)
				}
				if kept, _ := tb.Len(); kept != kept0 {
					t.Fatalf("seed %d step %d: a failed build moved the table from %d to %d entries", seed, step, kept0, kept)
				}
			case 3: // a build shared with one waiter and not kept
				e, lead := tb.Join(k)
				if lead == wasKept {
					t.Fatalf("seed %d step %d: Join(%d) lead=%v with the key kept=%v", seed, step, k, lead, wasKept)
				}
				if lead {
					w, wlead := tb.Join(k)
					v := fresh(k)
					tb.Publish(e, v, nil, false)
					if got, err := w.Wait(ctx); wlead || w != e || got != v || err != nil {
						t.Fatalf("seed %d step %d: the waiter of an unkept build got (%v, %v)", seed, step, got, err)
					}
					if _, ok := tb.Get(k); ok {
						t.Fatalf("seed %d step %d: an unkept build of %d was kept", seed, step, k)
					}
				} else {
					v, _ := e.Wait(ctx)
					holders = append(holders, holder{e, v})
				}
			case 4:
				tb.Put(k, fresh(k))
			case 5: // the kept entry grows
				if v, ok := tb.Get(k); ok {
					v.size += rng.Int63n(maxBytes / 2)
					tb.Resize(k)
					if _, ok := tb.Get(k); ok != (v.size <= maxBytes) {
						t.Fatalf("seed %d step %d: entry %d grown to %d bytes kept=%v", seed, step, k, v.size, ok)
					}
				}
			case 6: // a reset, with a build of k in flight unless k is kept
				if rng.Intn(10) == 0 {
					e, lead := tb.Join(k)
					tb.Reset()
					if lead {
						v := fresh(k)
						tb.Publish(e, v, nil, true)
						if got, err := e.Wait(ctx); got != v || err != nil {
							t.Fatalf("seed %d step %d: a build across a Reset served (%v, %v)", seed, step, got, err)
						}
						if _, ok := tb.Get(k); ok {
							t.Fatalf("seed %d step %d: a build in flight across a Reset was kept", seed, step)
						}
					}
				}
			}

			kept, building := tb.Len()
			var n int
			var sum int64
			for k := 0; k < keys; k++ {
				if v, ok := tb.Get(k); ok {
					n++
					sum += v.size
				}
			}
			if kept > maxEntries || tb.Bytes() > maxBytes || building != 0 || n != kept || sum != tb.Bytes() {
				t.Fatalf("seed %d step %d: %d kept (%d got), %d building, %d bytes (%d summed); bounds %d, %d",
					seed, step, kept, n, building, tb.Bytes(), sum, maxEntries, maxBytes)
			}
			if len(holders) > 0 {
				h := holders[rng.Intn(len(holders))]
				if v, err := h.e.Wait(ctx); v != h.v || err != nil {
					t.Fatalf("seed %d step %d: a holder of entry %d was served (%v, %v)", seed, step, h.v.key, v, err)
				}
			}
		}
		if evictions == 0 {
			t.Errorf("seed %d: the bounds never evicted", seed)
		}
	}
}

// TestOversizedEntryNotKept: an entry larger than the whole byte bound is
// served to its caller, counted as its own eviction, and flushes nothing.
func TestOversizedEntryNotKept(t *testing.T) {
	var evictions int
	tb := sizedTable(0, 100, &evictions)
	ctx := context.Background()
	for k := 0; k < 2; k++ {
		tb.Put(k, &sized{key: k, size: 40})
	}
	big := &sized{key: 9, size: 101}
	if v, err := tb.Do(ctx, 9, func() (*sized, error) { return big, nil }); v != big || err != nil {
		t.Fatalf("oversized build served (%v, %v)", v, err)
	}
	tb.Put(8, &sized{key: 8, size: 500})
	if _, ok := tb.Get(9); ok {
		t.Error("an oversized build was kept")
	}
	if _, ok := tb.Get(8); ok {
		t.Error("an oversized put was kept")
	}
	if kept, _ := tb.Len(); kept != 2 || tb.Bytes() != 80 || evictions != 2 {
		t.Errorf("%d kept, %d bytes, %d evictions; want the two small entries untouched and two evictions", kept, tb.Bytes(), evictions)
	}
	v, _ := tb.Get(0)
	v.size = 101
	tb.Resize(0)
	if _, ok := tb.Get(1); !ok || tb.Bytes() != 40 {
		t.Errorf("an entry grown past the bound flushed its neighbour (%d bytes held)", tb.Bytes())
	}
}

// TestSharedNotKept: a value published unkept reaches every caller that
// joined its build, and no caller after it.
func TestSharedNotKept(t *testing.T) {
	var tb Table[string, int]
	ctx := context.Background()
	e, lead := tb.Join("k")
	if !lead {
		t.Fatal("the first caller of a cold key does not lead")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		w, wlead := tb.Join("k")
		if wlead || w != e {
			t.Fatal("a caller of a key in flight leads a second build")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := w.Wait(ctx); v != 42 || err != nil {
				t.Errorf("joined waiter got (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	tb.Publish(e, 42, nil, false)
	wg.Wait()
	if _, ok := tb.Get("k"); ok {
		t.Error("Get served a value published unkept")
	}
	built := false
	if v, err := tb.Do(ctx, "k", func() (int, error) { built = true; return 7, nil }); !built || v != 7 || err != nil {
		t.Errorf("a later caller got (%d, %v) built=%v, want its own build", v, err, built)
	}
}

// TestWarmHitAllocs: a warm hit, through Do or Get, allocates nothing.
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	tb := Table[string, *sized]{MaxEntries: 4}
	ctx := context.Background()
	build := func() (*sized, error) { return &sized{}, nil }
	if _, err := tb.Do(ctx, "warm", build); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tb.Do(ctx, "warm", build); err != nil {
			t.Fatal(err)
		}
		if _, ok := tb.Get("warm"); !ok {
			t.Fatal("warm key missed")
		}
	}); n != 0 {
		t.Errorf("warm hit: %.1f allocations, want 0", n)
	}
}
