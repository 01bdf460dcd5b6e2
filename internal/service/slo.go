package service

import (
	"fmt"
	"sync"
	"time"
)

// The latency SLO: sloTarget of requests answer within sloLatency, so the
// error budget is 1-sloTarget. Burn rates are sampled every sloTick over the
// standard fast/slow multiwindow pair: the fast window pages on sharp
// regressions, the slow one on sustained budget leaks.
const (
	sloLatency     = 500 * time.Millisecond
	sloTick        = 10 * time.Second
	burnFastWindow = 5 * time.Minute
	burnSlowWindow = time.Hour
)

// sloTarget is typed so that 1-sloTarget rounds in float64, as the error
// budget always has.
const sloTarget float64 = 0.99

// burnSample is one periodic reading of the latency histogram's SLO split.
type burnSample struct {
	at    time.Time
	total uint64
	good  uint64
}

// burnTracker turns the cumulative latency histogram into windowed SLO burn
// rates. Every tick it snapshots (total, within-objective) counts; the burn
// rate over a window is the bad fraction across that window divided by the
// error budget, so burn 1.0 means "spending the budget exactly as fast as
// the SLO allows" and burn N means the budget dies in 1/N of the period.
type burnTracker struct {
	mu      sync.Mutex
	samples []burnSample
}

// record appends a sample and trims history beyond the slow window.
func (b *burnTracker) record(s burnSample) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.samples = append(b.samples, s)
	cutoff := s.at.Add(-burnSlowWindow - time.Minute)
	drop := 0
	for drop < len(b.samples)-1 && b.samples[drop].at.Before(cutoff) {
		drop++
	}
	b.samples = b.samples[drop:]
}

// rate computes the burn over the trailing window ending at the newest
// sample, against the error budget 1-sloTarget. Windows with no traffic burn
// nothing.
func (b *burnTracker) rate(window time.Duration) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.samples) < 2 {
		return 0
	}
	newest := b.samples[len(b.samples)-1]
	cutoff := newest.at.Add(-window)
	// The latest sample at or before the window start; the oldest sample
	// stands in while the window is still filling.
	base := b.samples[0]
	for _, s := range b.samples[:len(b.samples)-1] {
		if s.at.After(cutoff) {
			break
		}
		base = s
	}
	total := newest.total - base.total
	if total == 0 {
		return 0
	}
	bad := float64(total) - float64(newest.good-base.good)
	return bad / float64(total) / (1 - sloTarget)
}

// sampleBurn takes one reading of the latency histogram and refreshes the
// burn-rate gauges. Called on the SLO ticker and from tests.
func (s *Service) sampleBurn(now time.Time) {
	h := s.stats.latency
	s.burn.record(burnSample{
		at:    now,
		total: h.Count(),
		good:  h.CountAtOrBelow(sloLatency.Seconds()),
	})
	fast := s.burn.rate(burnFastWindow)
	slow := s.burn.rate(burnSlowWindow)
	s.stats.burnFast.Set(int64(fast * 1000))
	s.stats.burnSlow.Set(int64(slow * 1000))
}

// burnLoop drives sampleBurn every sloTick until Close.
func (s *Service) burnLoop() {
	t := time.NewTicker(sloTick)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.sampleBurn(now)
		case <-s.stopBurn:
			return
		}
	}
}

// Readiness is the /readyz verdict.
type Readiness struct {
	Ready bool `json:"ready"`
	// QueueDepth is the number of submissions waiting for a pool worker;
	// MaxQueue the shedding threshold.
	QueueDepth int64 `json:"queue_depth"`
	MaxQueue   int   `json:"max_queue"`
	// Burn rates (fast/slow window) at the last SLO tick, x1000.
	BurnFastMilli int64  `json:"burn_fast_milli"`
	BurnSlowMilli int64  `json:"burn_slow_milli"`
	Reason        string `json:"reason,omitempty"`
}

// Ready reports whether the service should accept new traffic: it sheds
// (not ready) once the pool queue reaches maxQueue, before submissions start
// burning whole request deadlines waiting for a worker.
func (s *Service) Ready() Readiness {
	r := Readiness{
		QueueDepth:    s.stats.queueDepth.Value(),
		MaxQueue:      s.maxQueue(),
		BurnFastMilli: s.stats.burnFast.Value(),
		BurnSlowMilli: s.stats.burnSlow.Value(),
	}
	if r.QueueDepth >= int64(r.MaxQueue) {
		r.Reason = fmt.Sprintf("pool queue depth %d at shedding threshold %d", r.QueueDepth, r.MaxQueue)
		return r
	}
	r.Ready = true
	return r
}
