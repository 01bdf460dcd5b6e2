package synth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// searchSummary is what a search decides: its counters and the fingerprints
// of the schedules it returns (recipes alongside, for the reader).
type searchSummary struct {
	Point                                            string
	Explored, PrunedVerify, PrunedBound, PrunedShape int
	Best, Baseline                                   string
	Pareto                                           []string
	BestRecipe, BaselineRecipe                       string
}

// TestSearchResultGolden pins every family's search at 2 KiB and 256 KiB on
// the 64-rank fat tree: counters, winner, baseline and pareto front must not
// move when the search gets cheaper. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/synth -run TestSearchResultGolden, and
// only when a change is meant to alter what the search finds.
func TestSearchResultGolden(t *testing.T) {
	m := fatTree64(t)
	var got []searchSummary
	for _, f := range Families() {
		for _, payload := range []int{2 << 10, 256 << 10} {
			res, err := Search(m, nil, f, 64, payload, Options{})
			if err != nil {
				t.Fatalf("%v @ %d B: %v", f, payload, err)
			}
			sum := searchSummary{
				Point:    fmt.Sprintf("%v/p64/%dB", f, payload),
				Explored: res.Explored, PrunedVerify: res.PrunedVerify,
				PrunedBound: res.PrunedBound, PrunedShape: res.PrunedShape,
				Best: res.Best.Fingerprint, Baseline: res.Baseline.Fingerprint,
				BestRecipe: res.Best.Recipe.String(), BaselineRecipe: res.Baseline.Recipe.String(),
			}
			for _, c := range res.Pareto {
				sum.Pareto = append(sum.Pareto, c.Fingerprint)
			}
			got = append(got, sum)
		}
	}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "search_fattree64.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("search results drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", blob, want)
	}
}
