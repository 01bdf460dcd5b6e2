package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func mkProfile(i int) Profile {
	p := Profile{
		Program:    "ring",
		P:          8,
		Blocks:     8,
		BlockBytes: 1024,
		Rank:       0,
		UnixNanos:  int64(i),
		Stages:     1,
		Transfers:  7,
		Bytes:      7 * 1024,
	}
	p.AddStage(0, float64(i)*1e-6)
	return p
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(16)
	if r.Capacity() != 16 {
		t.Fatalf("capacity = %d, want 16", r.Capacity())
	}
	const n = 40
	for i := 1; i <= n; i++ {
		r.Record(mkProfile(i))
	}
	if r.Recorded() != n {
		t.Fatalf("recorded = %d, want %d", r.Recorded(), n)
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot holds %d profiles, want 16", len(snap))
	}
	// Oldest first, and exactly the last 16 records survive the wrap.
	for i, p := range snap {
		want := int64(n - 16 + 1 + i)
		if p.UnixNanos != want {
			t.Fatalf("snapshot[%d].UnixNanos = %d, want %d", i, p.UnixNanos, want)
		}
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024}, {1024, 1024},
	} {
		if got := NewRecorder(tc.in).Capacity(); got != tc.want {
			t.Errorf("NewRecorder(%d).Capacity() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p := mkProfile(7)
	p.Stages = 3
	p.AddStage(1, 2e-6)
	p.AddStage(2, 3e-6)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"stage_seconds"`) {
		t.Fatalf("marshalled profile lacks stage_seconds: %s", data)
	}
	var got Profile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
	// The dump shape trims the fixed array to Stages entries.
	var raw struct {
		StageSeconds []float64 `json:"stage_seconds"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.StageSeconds) != 3 {
		t.Fatalf("dump carries %d stage bins, want 3", len(raw.StageSeconds))
	}
}

func TestProfileAddStageTruncation(t *testing.T) {
	var p Profile
	for i := 0; i < MaxProfileStages+4; i++ {
		p.AddStage(i, 1e-6)
	}
	if !p.Truncated {
		t.Fatal("profile past MaxProfileStages not marked truncated")
	}
	want := float64(MaxProfileStages+4) * 1e-6
	if diff := p.TotalSeconds - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("TotalSeconds = %g, want %g (truncation must not drop total time)", p.TotalSeconds, want)
	}
}

func TestRecorderWriteJSON(t *testing.T) {
	r := NewRecorder(16)
	for i := 1; i <= 3; i++ {
		r.Record(mkProfile(i))
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, "unit test"); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Capacity != 16 || d.Recorded != 3 || d.Reason != "unit test" || len(d.Profiles) != 3 {
		t.Fatalf("dump = %+v, want capacity 16, recorded 3, 3 profiles", d)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(mkProfile(w*per + i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Recorded() != writers*per {
		t.Fatalf("recorded = %d, want %d (every offer must be counted)", r.Recorded(), writers*per)
	}
	if n := len(r.Snapshot()); n != 64 {
		t.Fatalf("snapshot holds %d profiles, want full ring of 64", n)
	}
}

func TestDumpFlight(t *testing.T) {
	dir := t.TempDir()
	SetWatchdogDumpDir(dir)
	defer SetWatchdogDumpDir("")
	Flight.Record(mkProfile(1))
	path, err := DumpFlight("test watchdog")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump written to %s, want directory %s", path, dir)
	}
	if LastWatchdogDump() != path {
		t.Fatalf("LastWatchdogDump() = %q, want %q", LastWatchdogDump(), path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump file is not valid JSON: %v", err)
	}
	if d.Reason != "test watchdog" || len(d.Profiles) == 0 {
		t.Fatalf("dump = reason %q with %d profiles, want the recorded profile present", d.Reason, len(d.Profiles))
	}
}

// TestFlightRecordAllocs pins the record path's allocation behaviour: the
// executor records one profile per sampled execution on a rank's critical
// path, by value into the ring (the path is designed for 0 allocations).
func TestFlightRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on mutex and slice operations")
	}
	r := NewRecorder(1024)
	p := mkProfile(1)
	if avg := testing.AllocsPerRun(1000, func() {
		p.UnixNanos++
		r.Record(p)
	}); avg > 1 {
		t.Errorf("Recorder.Record allocates %.2f times per call, want at most 1", avg)
	}
}

// BenchmarkFlightRecord times the record path TestFlightRecordAllocs counts
// allocations on.
func BenchmarkFlightRecord(b *testing.B) {
	r := NewRecorder(1024)
	p := mkProfile(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.UnixNanos = int64(i)
		r.Record(p)
	}
}
