package topology

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

func TestDistancesRoundTrip(t *testing.T) {
	c := GPC()
	layout := MustLayout(c, 128, CyclicScatter)
	d, err := NewDistances(c, layout)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDistances(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != d.N() {
		t.Fatalf("N = %d, want %d", got.N(), d.N())
	}
	for i := range d.Cores {
		if got.Cores[i] != d.Cores[i] {
			t.Fatalf("core %d differs", i)
		}
	}
	for i := range d.D {
		if got.D[i] != d.D[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestReadDistancesRejectsCorruption(t *testing.T) {
	c := SingleNode(2, 2)
	d, _ := NewDistances(c, []int{0, 1, 2, 3})
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

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
	// Empty input.
	if _, err := ReadDistances(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestReadDistancesHostileCount rewrites the core count of a valid file: the
// header is read before the checksum can vouch for it, so a flipped bit
// there must end in an error after allocating about what the file holds —
// not in count^2 int32s (4 TiB at the format's 1<<20 ceiling, which the
// 9 MiB file below is long enough to reach past the core list).
func TestReadDistancesHostileCount(t *testing.T) {
	c := GPC()
	for _, p := range []int{16, 1536} {
		d, err := NewDistances(c, MustLayout(c, p, BlockBunch))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		const countOffset = 8 // after magic and version
		for _, count := range []uint64{1 << 20, uint64(p) + 1} {
			bad := append([]byte(nil), buf.Bytes()...)
			binary.LittleEndian.PutUint64(bad[countOffset:], count)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadDistances(bytes.NewReader(bad))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("p=%d: count %d accepted", p, count)
			}
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+4*len(bad)); grew > limit {
				t.Errorf("p=%d count %d: ReadDistances allocated %d bytes on a %d-byte file (limit %d)", p, count, grew, len(bad), limit)
			}
		}
	}
}
