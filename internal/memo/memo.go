// Package memo is the one build-once table the repository's caches are
// instances of: the compiled-program tables, mapd's topology contexts and
// their per-context memos, mapd's result cache with its single flight, and
// the synth Selector.
//
// A Table builds each key once however many callers race for it; the others
// wait under their own context and share the result. A failed build is never
// kept and is the builder's alone: it is forgotten before any waiter wakes, a
// waiter with budget left retries the build under its own context, a waiter
// whose budget is spent reports its own expiry, and a finished build is never
// refused. Optional bounds — an entry count and approximate bytes, both over
// kept entries — evict least recently used first. An entry that alone
// exceeds the byte bound is dropped and flushes nothing, and a dropped entry
// still serves every caller that holds it.
package memo

import (
	"context"
	"sync"
	"time"
)

// Table is a build-once map from K to V. The zero value is an unbounded
// table, ready to use; set the exported fields before first use. A Table must
// not be copied after first use.
type Table[K comparable, V any] struct {
	// MaxEntries and MaxBytes bound the kept entries; 0 leaves a bound off.
	MaxEntries int
	MaxBytes   int64
	// Size, when set, is a value's approximate heap bytes. It is read with
	// the table locked when an entry is kept and again by Resize.
	Size func(V) int64
	// OnEvict and OnResize, when set, are called once per kept entry the
	// bounds drop and whenever the kept entries or their bytes change. They
	// run with the table locked, so the counters and gauges they set move in
	// the table's own order; they must not call back into the table.
	OnEvict  func()
	OnResize func(entries int, bytes int64)

	mu    sync.Mutex
	m     map[K]*Entry[K, V] // kept entries and builds in flight
	lru   Entry[K, V]        // sentinel of the ring of kept entries, most recent next
	kept  int
	bytes int64
}

// Entry is one key's build: in flight until its leader publishes it, then
// kept or forgotten.
type Entry[K comparable, V any] struct {
	key        K
	done       chan struct{} // closed once val and err are set
	val        V
	err        error
	bytes      int64
	prev, next *Entry[K, V] // the LRU ring; nil unless kept
}

// Do returns k's value, building it with build on a miss. A successful build
// is kept; see the package comment for what a failure does to its waiters.
func (t *Table[K, V]) Do(ctx context.Context, k K, build func() (V, error)) (V, error) {
	for {
		e, lead := t.Join(k)
		if lead {
			v, err := build()
			t.Publish(e, v, err, true)
			return v, err
		}
		if v, err := e.Wait(ctx); err == nil {
			return v, nil
		}
		if err := Expired(ctx); err != nil {
			var zero V
			return zero, err
		}
	}
}

// Join is the split form of Do: it returns k's entry, filing one in flight
// when k is absent, and lead reports that the caller owns that build and must
// Publish it. Anyone else Waits on the entry.
func (t *Table[K, V]) Join(k K) (e *Entry[K, V], lead bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e = t.find(k); e != nil {
		return e, false
	}
	if t.m == nil {
		t.m = make(map[K]*Entry[K, V])
	}
	e = &Entry[K, V]{key: k, done: make(chan struct{})}
	t.m[k] = e
	return e, true
}

// Publish completes the build of e, handing v and err to every caller that
// joined it. A successful build is kept when keep is set; otherwise e is
// forgotten before any waiter wakes, so that later callers build afresh.
func (t *Table[K, V]) Publish(e *Entry[K, V], v V, err error, keep bool) {
	t.mu.Lock()
	e.val, e.err = v, err
	if t.m[e.key] == e { // else Reset forgot it while it was building
		if keep && err == nil {
			t.keep(e)
		} else {
			delete(t.m, e.key)
		}
	}
	t.mu.Unlock()
	close(e.done)
}

// Wait returns the published value and error of e's build, or ctx's error if
// ctx ends first. A finished build is never refused.
func (e *Entry[K, V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-e.done:
	case <-ctx.Done():
		select {
		case <-e.done:
		default:
			var zero V
			return zero, ctx.Err()
		}
	}
	return e.val, e.err
}

// Get returns the value kept under k; a build in flight is not waited for.
func (t *Table[K, V]) Get(k K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.find(k); e != nil && e.next != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put keeps v, found elsewhere, under k unless k is already kept or being
// built: it is a build whose value is already in hand.
func (t *Table[K, V]) Put(k K, v V) {
	if e, lead := t.Join(k); lead {
		t.Publish(e, v, nil, true)
	}
}

// Resize re-reads the size of the entry kept under k, marks it recently used
// and evicts down to the bounds.
func (t *Table[K, V]) Resize(k K) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.find(k); e != nil && e.next != nil {
		t.charge(e)
	}
}

// Len returns the number of kept entries and of builds in flight.
func (t *Table[K, V]) Len() (kept, building int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept, len(t.m) - t.kept
}

// Bytes returns the approximate bytes of the kept entries.
func (t *Table[K, V]) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// Reset forgets every entry. Builds in flight still reach their waiters but
// are not kept.
func (t *Table[K, V]) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.m)
	t.lru.prev, t.lru.next = nil, nil
	t.kept, t.bytes = 0, 0
	if t.OnResize != nil {
		t.OnResize(0, 0)
	}
}

// find returns k's entry, in flight or kept, marking a kept one recently
// used.
func (t *Table[K, V]) find(k K) *Entry[K, V] {
	e := t.m[k]
	if e != nil && e.next != nil {
		unlink(e)
		t.front(e)
	}
	return e
}

// keep links e, just published, as the most recently used kept entry.
func (t *Table[K, V]) keep(e *Entry[K, V]) {
	t.front(e)
	t.kept++
	t.charge(e)
}

// charge re-reads e's size and evicts down to the bounds, e alone when it
// alone exceeds the byte bound.
func (t *Table[K, V]) charge(e *Entry[K, V]) {
	if t.Size != nil {
		n := t.Size(e.val)
		t.bytes += n - e.bytes
		e.bytes = n
	}
	if t.MaxBytes > 0 && e.bytes > t.MaxBytes {
		t.drop(e)
	}
	for t.MaxEntries > 0 && t.kept > t.MaxEntries || t.MaxBytes > 0 && t.bytes > t.MaxBytes {
		t.drop(t.lru.prev)
	}
	if t.OnResize != nil {
		t.OnResize(t.kept, t.bytes)
	}
}

func (t *Table[K, V]) drop(e *Entry[K, V]) {
	unlink(e)
	delete(t.m, e.key)
	t.kept--
	t.bytes -= e.bytes
	if t.OnEvict != nil {
		t.OnEvict()
	}
}

func (t *Table[K, V]) front(e *Entry[K, V]) {
	if t.lru.next == nil {
		t.lru.prev, t.lru.next = &t.lru, &t.lru
	}
	e.prev, e.next = &t.lru, t.lru.next
	e.next.prev, t.lru.next = e, e
}

func unlink[K comparable, V any](e *Entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Expired reports whether ctx's budget is spent. It reads the clock as well
// as ctx.Err(): a build that finishes in microseconds outruns a loaded
// runtime's delivery of a timer cancellation, so Err alone would make tight
// deadlines nondeterministic.
func Expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}
