package osu

import (
	"testing"

	"repro/internal/collective"
)

func TestSizes(t *testing.T) {
	got := Sizes(4, 64)
	want := []int{4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("Sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes = %v, want %v", got, want)
		}
	}
	ds := DefaultSizes()
	if ds[0] != 4 || ds[len(ds)-1] != 256*1024 {
		t.Errorf("DefaultSizes = %v..%v", ds[0], ds[len(ds)-1])
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(10, 5); got != 50 {
		t.Errorf("Improvement(10,5) = %g", got)
	}
	if got := Improvement(10, 12); got != -20 {
		t.Errorf("Improvement(10,12) = %g", got)
	}
	if got := Improvement(0, 5); got != 0 {
		t.Errorf("Improvement(0,5) = %g", got)
	}
}

func TestMeasureRuntime(t *testing.T) {
	res, err := MeasureRuntime(8, 64, collective.AlgAuto, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Errorf("latency = %v", res.Latency)
	}
	if res.Bytes != 64 {
		t.Errorf("bytes = %d", res.Bytes)
	}
	if _, err := MeasureRuntime(4, 16, collective.AlgAuto, 0, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}
