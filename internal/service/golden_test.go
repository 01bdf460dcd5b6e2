package service

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/cold_golden.json from the code under
// test. The committed table was generated at the commit before the cold path
// was rewritten (3eef01a); regenerate only when a change is MEANT to move
// mappings or prices.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cold_golden.json")

const goldenPath = "testdata/cold_golden.json"

// goldenRow is what one response must reproduce. The mapping is pinned by
// length and FNV-1a fingerprint (a p=4096 permutation per row would make the
// table half a megabyte); the modelled latencies are pinned exactly — JSON
// round-trips float64 bit for bit, and the comparison is plain ==.
type goldenRow struct {
	Case      string       `json:"case"`
	Procs     int          `json:"procs"`
	MappingFP string       `json:"mapping_fp"`
	Heuristic string       `json:"heuristic"`
	Schedule  string       `json:"schedule"`
	Results   []SizeResult `json:"results"`
}

func fatTreeSpec(nodes, leaves, perLeaf, uplinks int) TopologySpec {
	return TopologySpec{
		Nodes: nodes, SocketsPerNode: 2, CoresPerSocket: 4,
		Network: &NetworkSpec{Kind: "fattree", Leaves: leaves, NodesPerLeaf: perLeaf, Uplinks: uplinks},
	}
}

// goldenTopologies is the benchmark's topology axis (bench/mapreq.go).
var goldenTopologies = []struct {
	name  string
	spec  TopologySpec
	cores int
}{
	{"uniform-64", TopologySpec{Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4}, 64},
	{"fattree-64", fatTreeSpec(8, 2, 4, 2), 64},
	{"fattree-256", fatTreeSpec(32, 4, 8, 4), 256},
	{"fattree-1024", fatTreeSpec(128, 8, 16, 8), 1024},
	{"torus-64", TopologySpec{Nodes: 64, SocketsPerNode: 1, CoresPerSocket: 1,
		Network: &NetworkSpec{Kind: "torus", X: 8, Y: 8, Z: 1}}, 64},
	{"torus-256", TopologySpec{Nodes: 64, SocketsPerNode: 2, CoresPerSocket: 2,
		Network: &NetworkSpec{Kind: "torus", X: 4, Y: 4, Z: 4}}, 256},
	{"gpc", TopologySpec{Preset: "gpc"}, 4096},
}

var (
	goldenPatterns = []string{"ring", "recursive-doubling", "binomial-broadcast", "binomial-gather", "alltoall"}
	goldenLayouts  = []string{"block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter"}
	goldenSizes    = []int{1024 + 7, 65536 + 7}
)

func rowOf(name string, resp *Response) goldenRow {
	return goldenRow{
		Case:      name,
		Procs:     len(resp.Mapping),
		MappingFP: fmt.Sprintf("%016x", mappingFingerprint(resp.Mapping)),
		Heuristic: resp.Heuristic,
		Schedule:  resp.Schedule,
		Results:   resp.Results,
	}
}

// goldenRows computes the whole table on s: every bench topology x pattern x
// layout as a cold single (all-to-all only where p <= 256, as in the
// benchmark), an "auto" race per topology for two patterns, and one batch of
// four per topology. The requests are issued in table order, or last first
// when reverse is set; the rows always come back in table order.
func goldenRows(t *testing.T, s *Service, reverse bool) []goldenRow {
	t.Helper()
	ctx := context.Background()
	var rows []goldenRow
	var jobs []func()
	single := func(name string, req *Request) {
		at := len(rows)
		rows = append(rows, goldenRow{})
		jobs = append(jobs, func() {
			resp, err := s.Compute(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if resp.Cached || resp.Degraded {
				t.Fatalf("%s: not a cold compute (cached=%v degraded=%v)", name, resp.Cached, resp.Degraded)
			}
			rows[at] = rowOf(name, resp)
		})
	}
	for _, topo := range goldenTopologies {
		topo := topo
		for _, pat := range goldenPatterns {
			if pat == "alltoall" && topo.cores > 256 {
				continue
			}
			for _, layout := range goldenLayouts {
				single(topo.name+"/"+pat+"/"+layout, &Request{
					Topology: topo.spec, Layout: layout,
					Pattern: PatternSpec{Name: pat}, Sizes: goldenSizes,
				})
			}
		}
		for i, pat := range []string{"recursive-doubling", "binomial-gather"} {
			layout := goldenLayouts[2+i]
			single(topo.name+"/"+pat+"/"+layout+"/auto", &Request{
				Topology: topo.spec, Layout: layout, Heuristic: "auto",
				Pattern: PatternSpec{Name: pat}, Sizes: []int{2048 + 7, 32768 + 7},
			})
		}
		breq := &BatchRequest{Topology: topo.spec, Layout: "cyclic-bunch", Sizes: []int{512 + 7, 16384 + 7}}
		for _, pat := range goldenPatterns[:4] {
			breq.Patterns = append(breq.Patterns, BatchPattern{Name: pat})
		}
		at := len(rows)
		rows = append(rows, make([]goldenRow, len(breq.Patterns))...)
		jobs = append(jobs, func() {
			bresp, err := s.ComputeBatch(ctx, breq)
			if err != nil {
				t.Fatalf("%s/batch4: %v", topo.name, err)
			}
			for i, resp := range bresp.Responses {
				if resp.Cached || resp.Degraded {
					t.Fatalf("%s/batch4[%d]: not a cold compute (cached=%v degraded=%v)", topo.name, i, resp.Cached, resp.Degraded)
				}
				rows[at+i] = rowOf(fmt.Sprintf("%s/batch4/%s", topo.name, goldenPatterns[i]), resp)
			}
		})
	}
	for i := range jobs {
		if reverse {
			i = len(jobs) - 1 - i
		}
		jobs[i]()
	}
	return rows
}

// readGolden loads the checked-in table.
func readGolden(t *testing.T) []goldenRow {
	t.Helper()
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkGolden requires got to equal the table row for row, floats with ==.
func checkGolden(t *testing.T, got, want []goldenRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("computed %d rows, golden table has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Case != w.Case {
			t.Fatalf("row %d is %q, golden has %q", i, g.Case, w.Case)
		}
		if g.Procs != w.Procs || g.MappingFP != w.MappingFP || g.Heuristic != w.Heuristic || g.Schedule != w.Schedule {
			t.Errorf("%s: got (p=%d map=%s %s %s), want (p=%d map=%s %s %s)", w.Case,
				g.Procs, g.MappingFP, g.Heuristic, g.Schedule, w.Procs, w.MappingFP, w.Heuristic, w.Schedule)
		}
		if len(g.Results) != len(w.Results) {
			t.Errorf("%s: %d result rows, want %d", w.Case, len(g.Results), len(w.Results))
			continue
		}
		for j := range w.Results {
			if g.Results[j] != w.Results[j] {
				t.Errorf("%s: size row %d = %+v, want %+v", w.Case, j, g.Results[j], w.Results[j])
			}
		}
	}
}

// TestColdPathGolden pins the cold compute path end to end: mapping,
// winning heuristic, priced schedule and every modelled latency must equal
// the table generated before the path was restructured.
func TestColdPathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("computes ~180 cold requests up to p=4096")
	}
	s := New(Config{Workers: 4, CacheEntries: 4096})
	defer s.Close()
	got := goldenRows(t, s, false)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), goldenPath)
		return
	}
	checkGolden(t, got, readGolden(t))
}

// TestWarmContextGolden: a warm topology context may never change an answer.
// The table is computed three times on one service — cold, again on the
// contexts the first pass left behind, and once more last request first —
// with a one-entry result cache, so that every row is recomputed, and each
// pass must equal the checked-in table exactly.
func TestWarmContextGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("computes ~540 requests up to p=4096")
	}
	s := New(Config{Workers: 4, CacheEntries: 1})
	defer s.Close()
	want := readGolden(t)
	for pass, reverse := range []bool{false, false, true} {
		checkGolden(t, goldenRows(t, s, reverse), want)
		if t.Failed() {
			t.Fatalf("pass %d (reverse=%v) differs from the golden table", pass, reverse)
		}
		// The reversed pass opens with the request the pass before it closed
		// with; put another key in the one-entry result cache between them.
		if _, err := s.Compute(context.Background(), &Request{
			Topology: smallTopo(), Pattern: PatternSpec{Name: "ring"}, Sizes: []int{pass + 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	hits, ctxHits, ctxEvictions := s.stats.cacheHits.Value(), s.stats.contextHits.Value(), s.stats.contextEvictions.Value()
	if hits != 0 || ctxHits == 0 || ctxEvictions != 0 {
		t.Errorf("cache hits %d, context hits %d, context evictions %d: the warm passes did not recompute on held contexts",
			hits, ctxHits, ctxEvictions)
	}
}
