package hwdisc

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/topology"
)

func TestLoadOrDiscoverCaches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "distances.bin")
	c := topology.GPC()
	layout := topology.MustLayout(c, 64, topology.BlockBunch)
	cm := DefaultCostModel()

	first, err := LoadOrDiscover(path, c, layout, cm)
	if err != nil {
		t.Fatal(err)
	}
	if first.Elapsed <= 0 {
		t.Error("first discovery should pay the one-time cost")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache not written: %v", err)
	}

	second, err := LoadOrDiscover(path, c, layout, cm)
	if err != nil {
		t.Fatal(err)
	}
	if second.Elapsed != 0 {
		t.Errorf("cached load should be free, got %v", second.Elapsed)
	}
	if !reflect.DeepEqual(second.Distances, first.Distances) {
		t.Error("cached distances differ")
	}
}

func TestLoadOrDiscoverRejectsMismatchedCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "distances.bin")
	c := topology.GPC()
	cm := DefaultCostModel()

	// Cache for one layout...
	layoutA := topology.MustLayout(c, 64, topology.BlockBunch)
	if _, err := LoadOrDiscover(path, c, layoutA, cm); err != nil {
		t.Fatal(err)
	}
	// ...must not satisfy a different one.
	layoutB := topology.MustLayout(c, 64, topology.CyclicBunch)
	res, err := LoadOrDiscover(path, c, layoutB, cm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed == 0 {
		t.Error("mismatched cache was trusted")
	}
	if res.Distances.Cores[1] != layoutB[1] {
		t.Error("rediscovered distances do not match the new layout")
	}
}

func TestLoadOrDiscoverSurvivesCorruptCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "distances.bin")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := topology.SingleNode(2, 4)
	layout := topology.MustLayout(c, 8, topology.BlockBunch)
	res, err := LoadOrDiscover(path, c, layout, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed == 0 {
		t.Error("garbage cache was trusted")
	}
}

// TestLoadOrDiscoverSurvivesHostileCount flips the core count in the header
// of a valid cache file. The cache must be discovered over — cheaply: the
// bogus count may not be turned into a count^2 allocation on the way.
func TestLoadOrDiscoverSurvivesHostileCount(t *testing.T) {
	c := topology.GPC()
	layout := topology.MustLayout(c, 16, topology.BlockBunch)
	cm := DefaultCostModel()
	for _, count := range []uint64{1 << 20, uint64(len(layout)) + 1} {
		path := filepath.Join(t.TempDir(), "distances.bin")
		want, err := LoadOrDiscover(path, c, layout, cm)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(file[8:], count) // after magic and version
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := LoadOrDiscover(path, c, layout, cm)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Elapsed != want.Elapsed {
			t.Errorf("count %d: cache with a damaged header was trusted (elapsed %v, want %v)", count, res.Elapsed, want.Elapsed)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("count %d: rediscovery allocated %d bytes", count, grew)
		}
		// The rewritten cache is good again.
		if again, err := LoadOrDiscover(path, c, layout, cm); err != nil || again.Elapsed != 0 {
			t.Errorf("count %d: cache not rewritten after rediscovery (elapsed %v, err %v)", count, again.Elapsed, err)
		}
	}
}
