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
// persistence. The format is a small binary header (magic, version, count,
// CRC of the payload) followed by the core indices and the matrix entries,
// all little-endian.

const (
	distMagic   = 0x54524d44 // "DMRT"
	distVersion = 1
)

// WriteTo serialises the distance matrix; it implements io.WriterTo.
func (d *Distances) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(distMagic)); err != nil {
		return n, err
	}
	if err := write(uint32(distVersion)); err != nil {
		return n, err
	}
	if err := write(uint64(len(d.Cores))); err != nil {
		return n, err
	}
	cores := make([]int64, len(d.Cores))
	for i, c := range d.Cores {
		cores[i] = int64(c)
	}
	if err := write(cores); err != nil {
		return n, err
	}
	if err := write(d.D); err != nil {
		return n, err
	}
	if err := write(d.checksum()); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// checksum covers the core list (full 64-bit values, as serialised) and
// the matrix entries.
func (d *Distances) checksum() uint32 {
	h := crc32.NewIEEE()
	var buf8 [8]byte
	for _, c := range d.Cores {
		binary.LittleEndian.PutUint64(buf8[:], uint64(int64(c)))
		h.Write(buf8[:])
	}
	var buf4 [4]byte
	for _, v := range d.D {
		binary.LittleEndian.PutUint32(buf4[:], uint32(v))
		h.Write(buf4[:])
	}
	return h.Sum32()
}

// ReadDistances deserialises a matrix written by WriteTo, verifying the
// header and checksum.
func ReadDistances(r io.Reader) (*Distances, error) {
	br := bufio.NewReader(r)
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("topology: reading distance header: %w", err)
	}
	if magic != distMagic {
		return nil, fmt.Errorf("topology: not a distance matrix file (magic %#x)", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != distVersion {
		return nil, fmt.Errorf("topology: unsupported distance file version %d", version)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	const maxCores = 1 << 20
	if count == 0 || count > maxCores {
		return nil, fmt.Errorf("topology: implausible core count %d", count)
	}
	// The count is untrusted until the checksum has been seen: read the body
	// in bounded chunks so a damaged header costs an error, not count^2
	// bytes of memory.
	cores64, err := readChunked[int64](br, count)
	if err != nil {
		return nil, fmt.Errorf("topology: reading %d core indices: %w", count, err)
	}
	d := &Distances{Cores: make([]int, count)}
	for i, c := range cores64 {
		d.Cores[i] = int(c)
	}
	if d.D, err = readChunked[int32](br, count*count); err != nil {
		return nil, fmt.Errorf("topology: reading %dx%d distance matrix: %w", count, count, err)
	}
	var sum uint32
	if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
		return nil, err
	}
	if sum != d.checksum() {
		return nil, fmt.Errorf("topology: distance file checksum mismatch")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("topology: persisted matrix invalid: %w", err)
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
