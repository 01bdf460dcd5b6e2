package topology

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Distances serialization: the paper extracts physical distances once and
// saves them "for future references" (Section IV); this file provides that
// persistence. The format is the compact oracle, little-endian:
//
//	magic u32, version u32, core count u64, level count u32
//	level distances [levels]i32, unit counts [levels]i32
//	core indices [count]i64
//	unit coordinates [count*levels]i32, slot-major
//	node table [m*m]i32, m = last level's unit count, present when m > 1
//	CRC-32 (IEEE) of every preceding byte
//
// Version 1 files (the dense p×p matrix) are rejected; hwdisc discovers over
// them like any other unreadable cache.

const (
	distMagic   = 0x54524d44 // "DMRT"
	distVersion = 2
	// maxCores and maxLevels bound what a header may claim before the
	// checksum can vouch for it.
	maxCores  = 1 << 20
	maxLevels = 32
)

// distHeader is the fixed-size head of a persisted oracle.
type distHeader struct {
	Magic, Version uint32
	Count          uint64
	Levels         uint32
}

// WriteTo serialises the oracle; it implements io.WriterTo.
func (d *Distances) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	cores := make([]int64, len(d.Cores))
	for i, c := range d.Cores {
		cores[i] = int64(c)
	}
	hdr := distHeader{distMagic, distVersion, uint64(len(d.Cores)), uint32(len(d.dists))}
	n := int64(0)
	for _, v := range []any{hdr, d.dists, d.units, cores, d.coords, d.table} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return n, err
		}
		n += int64(binary.Size(v))
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	err := binary.Write(w, binary.LittleEndian, crc.Sum32())
	return n + 4, err
}

// ReadDistances deserialises an oracle written by WriteTo, verifying the
// header, the checksum and every invariant Validate checks. No length read
// from the file is trusted with an allocation larger than the bytes that
// follow it.
func ReadDistances(r io.Reader) (*Distances, error) {
	crc := crc32.NewIEEE()
	br := io.TeeReader(bufio.NewReader(r), crc)
	var hdr distHeader
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("topology: reading distance header: %w", err)
	}
	switch {
	case hdr.Magic != distMagic:
		return nil, fmt.Errorf("topology: not a distance file (magic %#x)", hdr.Magic)
	case hdr.Version != distVersion:
		return nil, fmt.Errorf("topology: unsupported distance file version %d", hdr.Version)
	case hdr.Count == 0 || hdr.Count > maxCores:
		return nil, fmt.Errorf("topology: implausible core count %d", hdr.Count)
	case hdr.Levels == 0 || hdr.Levels > maxLevels:
		return nil, fmt.Errorf("topology: implausible level count %d", hdr.Levels)
	}
	d := &Distances{dists: make([]int32, hdr.Levels), units: make([]int32, hdr.Levels)}
	if err := binary.Read(br, binary.LittleEndian, d.dists); err != nil {
		return nil, fmt.Errorf("topology: reading level distances: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, d.units); err != nil {
		return nil, fmt.Errorf("topology: reading unit counts: %w", err)
	}
	for l, u := range d.units {
		if u < 1 || uint64(u) > hdr.Count {
			return nil, fmt.Errorf("topology: level %d claims %d units for %d cores", l, u, hdr.Count)
		}
	}
	cores, err := readChunked[int64](br, hdr.Count)
	if err != nil {
		return nil, fmt.Errorf("topology: reading %d core indices: %w", hdr.Count, err)
	}
	d.Cores = make([]int, len(cores))
	for i, c := range cores {
		d.Cores[i] = int(c)
	}
	if d.coords, err = readChunked[int32](br, hdr.Count*uint64(hdr.Levels)); err != nil {
		return nil, fmt.Errorf("topology: reading unit coordinates: %w", err)
	}
	if m := uint64(d.units[hdr.Levels-1]); m > 1 {
		if d.table, err = readChunked[int32](br, m*m); err != nil {
			return nil, fmt.Errorf("topology: reading %dx%d node table: %w", m, m, err)
		}
	}
	want := crc.Sum32()
	var sum uint32
	if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("topology: reading distance checksum: %w", err)
	}
	if sum != want {
		return nil, fmt.Errorf("topology: distance file checksum mismatch")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("topology: persisted oracle invalid: %w", err)
	}
	return d, nil
}

// readChunked reads n little-endian values from r a bounded chunk at a time.
// The result doubles as data arrives (capped at n), so an n that overstates
// what r holds fails at end of input having allocated only a small multiple
// of the bytes that were there.
func readChunked[T int32 | int64](r io.Reader, n uint64) ([]T, error) {
	const chunk = 1 << 16
	out := make([]T, 0, min(n, chunk))
	for uint64(len(out)) < n {
		if len(out) == cap(out) {
			out = append(make([]T, 0, min(n, 2*uint64(cap(out)))), out...)
		}
		part := out[len(out):min(cap(out), len(out)+chunk)]
		if err := binary.Read(r, binary.LittleEndian, part); err != nil {
			return nil, err
		}
		out = out[:len(out)+len(part)]
	}
	return out, nil
}
