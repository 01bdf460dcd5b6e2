package main

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// promSample is one scrape of a Prometheus text exposition: series name
// with its label set exactly as rendered ("name{k=\"v\"}") to value. Both
// the child mapd's /metrics body and this process's own metrics.Default
// registry are read through it, so every counter-derived layer metric is
// computed from what the program already exports.
type promSample map[string]float64

func parseProm(r io.Reader) promSample {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// ownMetrics scrapes this process's default registry.
func ownMetrics() promSample {
	var buf bytes.Buffer
	metrics.WritePrometheus(&buf, metrics.Default) //nolint:errcheck — bytes.Buffer writes cannot fail
	return parseProm(&buf)
}

// sum adds every series of the family `name`, across label sets. For a
// histogram pass name+"_sum" or name+"_count".
func (s promSample) sum(name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || (strings.HasPrefix(k, name) && k[len(name)] == '{') {
			total += v
		}
	}
	return total
}

// get returns one exact series, e.g. `schedule_compile_seconds_sum{view="exec"}`.
func (s promSample) get(series string) float64 { return s[series] }

// delta returns after-before for every series present in after.
func (s promSample) delta(before promSample) promSample {
	out := make(promSample, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
