package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

func TestReadyzSheds(t *testing.T) {
	s := New(Config{Workers: 2}) // sheds at a queue of 2x Workers
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// get also checks the reply's field set: the queue verdict, its reason
	// only when not ready, and nothing else.
	get := func() (int, Readiness) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var r Readiness
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		want := []string{"max_queue", "queue_depth", "ready"}
		if !r.Ready {
			want = []string{"max_queue", "queue_depth", "ready", "reason"}
		}
		got := make([]string, 0, len(fields))
		for k := range fields {
			got = append(got, k)
		}
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("/readyz fields = %v, want %v", got, want)
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

// TestNoRuntimeSurface: mapd runs no collective and holds no synth table, so
// its handler serves no flight ring, calibration report or synth table, and
// /metrics carries no runtime family. /metrics is its only counter view:
// there is no /stats.
func TestNoRuntimeSurface(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/stats"},
		{http.MethodGet, "/debug/flight"},
		{http.MethodGet, "/calibration"},
		{http.MethodGet, "/synth/table"},
		{http.MethodPut, "/synth/table"},
	} {
		req, err := http.NewRequest(probe.method, srv.URL+probe.path, strings.NewReader(`{"topology":"00000000cafe0001"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s answered %d, want 404", probe.method, probe.path, resp.StatusCode)
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
