package collective

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestCalibrate: a valid configuration runs and prints the skew table; an
// invalid one is refused, naming the bad value, before anything is printed
// or a world is spawned.
func TestCalibrate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cc      CalibrateConfig
		wantErr string // empty: the run succeeds
	}{
		{"ok", CalibrateConfig{P: 4, Sizes: []int{256}, Rounds: 2, Layout: topology.BlockBunch}, ""},
		{"one rank", CalibrateConfig{P: 1, Sizes: []int{256}}, "world size 1"},
		{"no sizes", CalibrateConfig{P: 4}, "no message sizes"},
		{"zero size", CalibrateConfig{P: 4, Sizes: []int{256, 0}}, "message size 0"},
		{"negative size", CalibrateConfig{P: 4, Sizes: []int{-1}}, "message size -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := Calibrate(&out, tc.cc)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				for _, want := range []string{"calibrating: p=4", "calibration on topology", "stage 0"} {
					if !strings.Contains(out.String(), want) {
						t.Fatalf("output lacks %q:\n%s", want, out.String())
					}
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Calibrate(%+v) = %v, want an error naming %q", tc.cc, err, tc.wantErr)
			}
			if out.Len() != 0 {
				t.Fatalf("refused run printed %q", out.String())
			}
		})
	}
}
