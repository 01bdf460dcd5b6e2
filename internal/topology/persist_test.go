package topology

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// persistFixtures are one oracle of each shape the format carries: levels
// up to a single root (fat-tree), and levels stopping at the node plus a
// node table (torus).
func persistFixtures(t *testing.T) map[string]*Distances {
	t.Helper()
	torus, err := NewCluster(8, 1, 2, NewTorus3D(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Distances{}
	for name, job := range map[string]struct {
		c     *Cluster
		cores []int
	}{
		"gpc":   {GPC(), MustLayout(GPC(), 128, CyclicScatter)},
		"torus": {torus, MustLayout(torus, 13, CyclicBunch)},
	} {
		d, err := NewDistances(job.c, job.cores)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = d
	}
	return out
}

func writeDistances(t *testing.T, d *Distances) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestDistancesRoundTrip(t *testing.T) {
	for name, d := range persistFixtures(t) {
		got, err := ReadDistances(bytes.NewReader(writeDistances(t, d)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("%s: read back %+v, want %+v", name, got, d)
		}
	}
}

func TestReadDistancesRejectsCorruption(t *testing.T) {
	c := SingleNode(2, 2)
	d, _ := NewDistances(c, []int{0, 1, 2, 3})
	good := writeDistances(t, d)

	// Truncated.
	if _, err := ReadDistances(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	// Flipped payload byte (checksum must catch it).
	bad := append([]byte(nil), good...)
	bad[20] ^= 0xff
	if _, err := ReadDistances(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted payload accepted")
	}
	// Wrong magic.
	bad2 := append([]byte(nil), good...)
	bad2[0] ^= 0xff
	if _, err := ReadDistances(bytes.NewReader(bad2)); err == nil {
		t.Error("bad magic accepted")
	}
	// The dense format of version 1.
	bad3 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad3[4:], 1)
	if _, err := ReadDistances(bytes.NewReader(bad3)); err == nil {
		t.Error("version 1 file accepted")
	}
	// Empty input.
	if _, err := ReadDistances(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// readBounded runs ReadDistances on b and fails t if it succeeds or
// allocates more than a small multiple of the file: no length read from the
// file may be trusted with an allocation before the bytes behind it arrive.
func readBounded(t *testing.T, what string, b []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadDistances(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("%s: accepted", what)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+4*len(b)); grew > limit {
		t.Errorf("%s: ReadDistances allocated %d bytes on a %d-byte file (limit %d)", what, grew, len(b), limit)
	}
}

// TestReadDistancesHostileCount rewrites the core count of a valid file: the
// header is read before the checksum can vouch for it, so a flipped bit
// there must end in an error after allocating about what the file holds —
// not count×levels coordinates (128 MiB at the format's 1<<20 ceiling).
func TestReadDistancesHostileCount(t *testing.T) {
	c := GPC()
	for _, p := range []int{16, 1536} {
		d, err := NewDistances(c, MustLayout(c, p, BlockBunch))
		if err != nil {
			t.Fatal(err)
		}
		good := writeDistances(t, d)
		const countOffset = 8 // after magic and version
		for _, count := range []uint64{1 << 20, uint64(p) + 1} {
			bad := append([]byte(nil), good...)
			binary.LittleEndian.PutUint64(bad[countOffset:], count)
			readBounded(t, "count rewrite", bad)
		}
	}
}

// TestReadDistancesTruncateAndFlipSweep cuts a written file at every offset
// and flips a bit, then a whole byte, at every offset: each case must end in
// an error, never a panic, having allocated no more than the file warrants.
func TestReadDistancesTruncateAndFlipSweep(t *testing.T) {
	for name, d := range persistFixtures(t) {
		good := writeDistances(t, d)
		for k := range good {
			readBounded(t, name+"/truncated", good[:k])
			for _, mask := range []byte{1 << (k % 8), 0xff} {
				bad := append([]byte(nil), good...)
				bad[k] ^= mask
				readBounded(t, name+"/flipped", bad)
			}
		}
	}
}
