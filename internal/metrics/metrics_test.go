package metrics

import (
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if again := r.Counter("test_total", "help"); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("test_gauge", "help")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestVecChildrenAreDistinctAndStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jobs_total", "help", "kind", "status")
	a := v.With("kind", "map", "status", "ok")
	b := v.With("status", "ok", "kind", "map") // pair order must not matter
	if a != b {
		t.Error("same label values resolved to different children")
	}
	c := v.With("kind", "map", "status", "err")
	if a == c {
		t.Error("distinct label values shared a child")
	}
	a.Add(2)
	c.Inc()
	if a.Value() != 2 || c.Value() != 1 {
		t.Errorf("values = %d, %d; want 2, 1", a.Value(), c.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "help")
	defer func() {
		if recover() == nil {
			t.Error("registering clash_total as a gauge did not panic")
		}
	}()
	r.Gauge("clash_total", "help")
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", HistogramOpts{Start: 1, Factor: 2, Count: 4})
	// Bounds: 1, 2, 4, 8, +Inf.
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {2.0001, 2},
		{4, 2}, {5, 3}, {8, 3}, {8.1, 4}, {1e9, 4},
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	if h.Count() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	var sum float64
	for _, c := range cases {
		sum += c.v
	}
	if math.Abs(h.Sum()-sum) > 1e-6 {
		t.Errorf("sum = %v, want %v", h.Sum(), sum)
	}
}

func TestHistogramBoundaryConsistency(t *testing.T) {
	// Every precomputed bound must land in its own bucket regardless of the
	// floating-point rounding inside the log-based index computation.
	h := newHistogram(DurationOpts)
	for i, b := range h.bounds {
		if got := h.bucketIndex(b); got != i {
			t.Errorf("bound %d (%v) indexed to bucket %d", i, b, got)
		}
	}
}

// TestConcurrentObservers is the -race stress test: concurrent With
// resolution across label sets plus hot-path updates on shared handles.
func TestConcurrentObservers(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("stress_total", "help", "worker")
	hv := r.HistogramVec("stress_seconds", "help", HistogramOpts{Start: 1e-6, Factor: 2, Count: 20}, "worker")
	g := r.Gauge("stress_gauge", "help")

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4) // collide across goroutines
			for i := 0; i < iters; i++ {
				cv.With("worker", label).Inc()
				hv.With("worker", label).Observe(float64(i) * 1e-6)
				g.Inc()
				g.Dec()
			}
		}(w)
	}
	// Concurrent exposition while observers are writing.
	var expWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		expWG.Add(1)
		go func() {
			defer expWG.Done()
			for j := 0; j < 50; j++ {
				if err := WritePrometheus(io.Discard, r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	expWG.Wait()

	var total uint64
	for w := 0; w < 4; w++ {
		total += cv.With("worker", fmt.Sprintf("w%d", w)).Value()
	}
	if want := uint64(workers * iters); total != want {
		t.Errorf("counter total = %d, want %d", total, want)
	}
	var hTotal uint64
	for w := 0; w < 4; w++ {
		hTotal += hv.With("worker", fmt.Sprintf("w%d", w)).Count()
	}
	if want := uint64(workers * iters); hTotal != want {
		t.Errorf("histogram total = %d, want %d", hTotal, want)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
}
