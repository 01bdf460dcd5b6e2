package mpi

import "sync"

// Stats accumulates per-pair traffic of a world when installed with
// WithStats: the number of messages and payload bytes sent from each world
// rank to each other. It is safe for concurrent use and is the ground truth
// the schedule models are cross-validated against.
type Stats struct {
	mu       sync.Mutex
	messages map[[2]int]int64
	bytes    map[[2]int]int64
	// hist buckets message counts per pair by payload size: the inner map
	// is keyed by SizeBucket(payload).
	hist map[[2]int]map[int]int64
}

// NewStats returns an empty collector.
func NewStats() *Stats {
	return &Stats{
		messages: make(map[[2]int]int64),
		bytes:    make(map[[2]int]int64),
		hist:     make(map[[2]int]map[int]int64),
	}
}

// SizeBucket returns the histogram bucket a payload of n bytes falls into,
// identified by the bucket's inclusive upper bound: 0 for empty messages,
// otherwise the smallest power of two >= n.
func SizeBucket(n int) int {
	if n <= 0 {
		return 0
	}
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}

// record accumulates one delivery.
func (s *Stats) record(src, dst, payload int) {
	key := [2]int{src, dst}
	s.mu.Lock()
	s.messages[key]++
	s.bytes[key] += int64(payload)
	h := s.hist[key]
	if h == nil {
		h = make(map[int]int64)
		s.hist[key] = h
	}
	h[SizeBucket(payload)]++
	s.mu.Unlock()
}

// Messages returns the message count from src to dst.
func (s *Stats) Messages(src, dst int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.messages[[2]int{src, dst}]
}

// Bytes returns the payload bytes sent from src to dst.
func (s *Stats) Bytes(src, dst int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes[[2]int{src, dst}]
}

// TotalMessages returns the number of point-to-point messages in the world.
func (s *Stats) TotalMessages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, v := range s.messages {
		n += v
	}
	return n
}

// TotalBytes returns the total payload volume.
func (s *Stats) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, v := range s.bytes {
		n += v
	}
	return n
}

// PairHistograms returns a copy of every pair's message-size histogram
// (bucket upper bound, see SizeBucket -> message count; pairs that never
// communicated are absent) — the observed-traffic matrix that experiment
// CSVs cross-validate the simnet model against.
func (s *Stats) PairHistograms() map[[2]int]map[int]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[[2]int]map[int]int64, len(s.hist))
	for pair, h := range s.hist {
		hc := make(map[int]int64, len(h))
		for k, v := range h {
			hc[k] = v
		}
		out[pair] = hc
	}
	return out
}

// PairBytes returns a copy of the per-pair byte matrix.
func (s *Stats) PairBytes() map[[2]int]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[[2]int]int64, len(s.bytes))
	for k, v := range s.bytes {
		out[k] = v
	}
	return out
}

// WithStats installs a traffic collector on the world. Every Send delivery
// is recorded with its world-rank endpoints and payload size.
func WithStats(s *Stats) Option {
	return func(w *World) { w.stats = s }
}
