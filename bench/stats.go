package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of samples by the nearest-rank
// rule on a sorted copy: the smallest value with at least q of the samples
// at or below it. It returns 0 for an empty slice.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median is the 0.5 quantile with the two middle values averaged on even
// counts (the convention statistics.median uses).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartileSpread is (Q3 - Q1) / median with the exclusive quartile method
// Python's statistics.quantiles(values, n=4) uses, so -compare and the
// README's steadiness numbers agree with the acceptance driver.
func quartileSpread(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	quart := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// finitePositive is what every modelled price and latency must be.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
