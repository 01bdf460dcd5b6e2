package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/topology"
)

// contextHeuristics lists every cancellable heuristic — the *Oracle forms,
// which a dense *topology.Distances satisfies — with its plain counterpart,
// so the tests can assert both interruption and equivalence.
var contextHeuristics = []struct {
	name  string
	plain Heuristic
	ctx   OracleHeuristic
}{
	{"RDMH", RDMH, RDMHOracle},
	{"RMH", RMH, RMHOracle},
	{"BBMH", BBMH, BBMHOracle},
	{"BGMH", BGMH, BGMHOracle},
	{"BKMH", BKMH, BKMHOracle},
	{"ATAMH", ATAMH, ATAMHOracle},
	{"BBMH/larger-first", func(d *topology.Distances, o *Options) (Mapping, error) {
		return BBMHWithTraversal(d, o, LargerSubtreeFirst)
	}, func(ctx context.Context, o topology.Oracle, opts *Options) (Mapping, error) {
		return BBMHWithTraversalOracle(ctx, o, opts, LargerSubtreeFirst)
	}},
}

func contextTestDistances(t *testing.T, p int) *topology.Distances {
	t.Helper()
	c, err := topology.NewCluster(p/8+1, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	layout := topology.MustLayout(c, p, topology.CyclicBunch)
	d, err := topology.NewDistances(c, layout)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestContextHeuristicsCancelledBeforeStart(t *testing.T) {
	d := contextTestDistances(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, h := range contextHeuristics {
		if m, err := h.ctx(ctx, d, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got mapping=%v err=%v", h.name, m, err)
		}
	}
}

func TestContextHeuristicsNilAndBackgroundMatchPlain(t *testing.T) {
	d := contextTestDistances(t, 64)
	for _, h := range contextHeuristics {
		want, err := h.plain(d, nil)
		if err != nil {
			t.Fatalf("%s plain: %v", h.name, err)
		}
		for name, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
			got, err := h.ctx(ctx, d, nil)
			if err != nil {
				t.Fatalf("%s %s ctx: %v", h.name, name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s ctx: length %d vs %d", h.name, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s %s ctx: mapping[%d] = %d, plain %d", h.name, name, i, got[i], want[i])
					break
				}
			}
		}
	}
}

func TestContextHeuristicMidRunCancellation(t *testing.T) {
	// A context cancelled from a traversal-driven side effect: cancel after
	// the first few placements by polling a counter via a wrapped context.
	d := contextTestDistances(t, 128)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	countingCtx := &countAfter{Context: ctx, limit: 10, fire: cancel, n: &n}
	_, err := RMHOracle(countingCtx, d, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled mid-run, got %v", err)
	}
	if n >= 128 {
		t.Fatalf("cancellation was not prompt: %d Err checks for 128 ranks", n)
	}
}

// countAfter cancels the wrapped context after limit Err() calls, modelling
// a deadline that fires while the heuristic loop is in flight.
type countAfter struct {
	context.Context
	limit int
	fire  context.CancelFunc
	n     *int
}

func (c *countAfter) Err() error {
	*c.n++
	if *c.n == c.limit {
		c.fire()
	}
	return c.Context.Err()
}

func TestPatternContextHeuristic(t *testing.T) {
	d := contextTestDistances(t, 32)
	for _, pat := range Patterns {
		h := pat.OracleHeuristic()
		if h == nil {
			t.Fatalf("%v: nil cancellable heuristic", pat)
		}
		m, err := h(context.Background(), d, nil)
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%v: %v", pat, err)
		}
	}
	if Pattern(250).OracleHeuristic() != nil {
		t.Error("unknown pattern should have no cancellable heuristic")
	}
}

func TestParsePattern(t *testing.T) {
	for _, pat := range Patterns {
		got, err := ParsePattern(pat.String())
		if err != nil || got != pat {
			t.Errorf("ParsePattern(%q) = %v, %v", pat.String(), got, err)
		}
	}
	if _, err := ParsePattern("no-such-pattern"); err == nil {
		t.Error("expected error for unknown pattern name")
	}
}

func TestPatternFingerprintStableAndDistinct(t *testing.T) {
	// Golden values: the fingerprint feeds persisted/content-addressed cache
	// keys, so accidental changes must fail loudly here.
	golden := map[Pattern]uint64{
		RecursiveDoubling: 0x313a2fbafd457ee3,
		Ring:              0xc5f7552ce0095a74,
		BinomialBroadcast: 0xafaab4ba3653614d,
		BinomialGather:    0x8eb2fe557438ea89,
	}
	seen := map[uint64]Pattern{}
	for _, pat := range Patterns {
		fp := pat.Fingerprint()
		if fp != pat.Fingerprint() {
			t.Errorf("%v: fingerprint not deterministic", pat)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision between %v and %v", prev, pat)
		}
		seen[fp] = pat
		if want, ok := golden[pat]; ok && fp != want {
			t.Errorf("%v: fingerprint %#x, golden %#x — changing it invalidates cache keys", pat, fp, want)
		}
	}
}
