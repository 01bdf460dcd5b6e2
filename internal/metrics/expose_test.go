package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the full text exposition: family ordering by
// name, child ordering by label values, label escaping, and the histogram
// _bucket/_sum/_count expansion with cumulative counts.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()

	h := r.Histogram("alpha_seconds", "Latency.", HistogramOpts{Start: 1, Factor: 2, Count: 4})
	h.Observe(0.5) // bucket le=1
	h.Observe(3)   // bucket le=4
	h.Observe(3)   // bucket le=4
	h.Observe(100) // +Inf

	cv := r.CounterVec("beta_total", "Events with \"odd\" labels\nand help.", "kind")
	cv.With("kind", "plain").Add(7)
	cv.With("kind", `quo"te\slash`+"\n").Inc()

	g := r.Gauge("gamma_depth", "Queue depth.")
	g.Set(-3)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP alpha_seconds Latency.`,
		`# TYPE alpha_seconds histogram`,
		`alpha_seconds_bucket{le="1"} 1`,
		`alpha_seconds_bucket{le="2"} 1`,
		`alpha_seconds_bucket{le="4"} 3`,
		`alpha_seconds_bucket{le="8"} 3`,
		`alpha_seconds_bucket{le="+Inf"} 4`,
		`alpha_seconds_sum 106.5`,
		`alpha_seconds_count 4`,
		`# HELP beta_total Events with "odd" labels\nand help.`,
		`# TYPE beta_total counter`,
		`beta_total{kind="plain"} 7`,
		`beta_total{kind="quo\"te\\slash\n"} 1`,
		`# HELP gamma_depth Queue depth.`,
		`# TYPE gamma_depth gauge`,
		`gamma_depth -3`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusMultiRegistry checks that same-named families from several
// registries merge under a single header and disjoint families coexist.
func TestPrometheusMultiRegistry(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.CounterVec("shared_total", "Shared.", "src").With("src", "a").Add(1)
	b.CounterVec("shared_total", "Shared.", "src").With("src", "b").Add(2)
	b.Counter("only_b_total", "B only.").Add(9)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE shared_total counter") != 1 {
		t.Errorf("shared family header not merged:\n%s", out)
	}
	for _, line := range []string{
		`shared_total{src="a"} 1`,
		`shared_total{src="b"} 2`,
		`only_b_total 9`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

// TestPrometheusFileMatchesWriter: the -metrics-out file is the text that
// /metrics serves, byte for byte.
func TestPrometheusFileMatchesWriter(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("file_total", "Count.").Add(3)
	b.Histogram("file_seconds", "Latency.", HistogramOpts{Start: 1, Factor: 2, Count: 2}).Observe(1.5)
	path := filepath.Join(t.TempDir(), "metrics.prom")
	if err := WritePrometheusFile(path, a, b); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WritePrometheus(&want, a, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("file:\n%s\nwriter:\n%s", got, want.Bytes())
	}
	if err := WritePrometheusFile(filepath.Join(path, "not-a-dir"), a); err == nil {
		t.Error("writing under a regular file succeeded")
	}
}
