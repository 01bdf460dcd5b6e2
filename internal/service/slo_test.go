package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBurnTrackerRate(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	var b burnTracker
	// No samples / single sample: nothing to burn.
	if r := b.rate(burnFastWindow); r != 0 {
		t.Fatalf("empty tracker burn = %v, want 0", r)
	}
	b.record(burnSample{at: base, total: 0, good: 0})
	if r := b.rate(burnFastWindow); r != 0 {
		t.Fatalf("single-sample burn = %v, want 0", r)
	}
	// 100 requests over the window, 2 violating the objective, budget 1%:
	// burn = (2/100)/0.01 = 2.
	b.record(burnSample{at: base.Add(time.Minute), total: 100, good: 98})
	if r := b.rate(burnFastWindow); math.Abs(r-2) > 1e-9 {
		t.Fatalf("burn = %v, want 2", r)
	}
	// All within objective since: burn decays to 0 once the old window
	// slides out.
	b.record(burnSample{at: base.Add(10 * time.Minute), total: 200, good: 198})
	if r := b.rate(burnFastWindow); r != 0 {
		t.Fatalf("recovered burn = %v, want 0 (violations left the fast window)", r)
	}
	// The slow window still sees them: 2 bad of 200 total → burn 1.
	if r := b.rate(burnSlowWindow); math.Abs(r-1) > 1e-9 {
		t.Fatalf("slow burn = %v, want 1", r)
	}
	// An idle window (no new traffic) burns nothing.
	b.record(burnSample{at: base.Add(20 * time.Minute), total: 200, good: 198})
	if r := b.rate(burnFastWindow); r != 0 {
		t.Fatalf("idle burn = %v, want 0", r)
	}
}

func TestBurnGaugesFromLatencyHistogram(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	now := time.Unix(1_000_000, 0)
	s.sampleBurn(now)
	// Four requests within the 500 ms objective (and its histogram bucket
	// bound, 0.262 s), one over it: 20% of traffic violates a 1% budget.
	for _, lat := range []float64{1e-3, 2e-3, 0.1, 0.2, 1.0} {
		s.stats.latency.Observe(lat)
	}
	s.sampleBurn(now.Add(time.Minute))
	badShare := 0.2
	want := int64(badShare / (1 - sloTarget) * 1000)
	if got := s.stats.burnFast.Value(); got != want {
		t.Fatalf("fast burn gauge = %d milli, want %d (burn 20)", got, want)
	}
	if got := s.stats.burnSlow.Value(); got != want {
		t.Fatalf("slow burn gauge = %d milli, want %d", got, want)
	}
	// The gauges reach exposition under the documented name.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), fmt.Sprintf(`mapd_slo_burn_rate_milli{window="fast"} %d`, want)) {
		t.Fatalf("/metrics lacks the fast burn gauge:\n%s", body)
	}
}

func TestReadyzSheds(t *testing.T) {
	s := New(Config{Workers: 2}) // sheds at a queue of 2x Workers
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() (int, Readiness) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r Readiness
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, r
	}

	if code, r := get(); code != http.StatusOK || !r.Ready {
		t.Fatalf("idle readyz = %d %+v, want 200 ready", code, r)
	}
	// Saturate the queue-depth gauge to the shedding threshold: /readyz
	// must refuse before submissions start eating whole request deadlines.
	s.stats.queueDepth.Add(3)
	if code, r := get(); code != http.StatusOK || !r.Ready || r.MaxQueue != 4 {
		t.Fatalf("readyz one below the threshold = %d %+v, want 200 ready with max queue 4", code, r)
	}
	s.stats.queueDepth.Add(1)
	code, r := get()
	s.stats.queueDepth.Add(-4)
	if code != http.StatusServiceUnavailable || r.Ready || r.Reason == "" {
		t.Fatalf("saturated readyz = %d %+v, want 503 with reason", code, r)
	}
	if code, r := get(); code != http.StatusOK || !r.Ready {
		t.Fatalf("drained readyz = %d %+v, want 200 ready again", code, r)
	}
}

// TestNoRuntimeSurface: mapd runs no collective, so its handler serves no
// flight ring or calibration report, and /metrics carries no runtime family.
func TestNoRuntimeSurface(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, path := range []string{"/debug/flight", "/calibration"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s answered %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"mpi_", "collective_", "obs_", "schedule_executions_total"} {
		if strings.Contains(string(body), "# TYPE "+family) {
			t.Errorf("/metrics exposes runtime family %s*", family)
		}
	}
}
