package metrics

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WritePrometheus renders the registries in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, children sorted by label
// values, histograms expanded into cumulative _bucket/_sum/_count series.
// When a family name appears in several registries, every registry's
// children are rendered under one HELP/TYPE header (the caller is
// responsible for keeping their label sets disjoint).
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	seen := make(map[string]bool)
	for ri, r := range regs {
		for _, f := range r.families() {
			if seen[f.name] {
				continue
			}
			seen[f.name] = true
			if f.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
				return err
			}
			if err := writeFamily(w, f); err != nil {
				return err
			}
			// Merge same-named families from the remaining registries under
			// this header.
			for _, other := range regs[ri+1:] {
				of := other.peek(f.name)
				if of == nil || of.kind != f.kind {
					continue
				}
				if err := writeFamily(w, of); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// peek returns the named family if registered, without creating it.
func (r *Registry) peek(name string) *family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fams[name]
}

func writeFamily(w io.Writer, f *family) error {
	keys, byKey, labels := f.children()
	for _, k := range keys {
		lbl := renderLabels(f.keys, labels[k], "")
		switch m := byKey[k].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl, m.Value()); err != nil {
				return err
			}
		case *Histogram:
			var cum uint64
			for i, b := range m.bounds {
				cum += m.counts[i].Load()
				le := renderLabels(f.keys, labels[k], formatFloat(b))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
					return err
				}
			}
			cum += m.counts[len(m.bounds)].Load()
			inf := renderLabels(f.keys, labels[k], "+Inf")
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, inf, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, lbl, formatFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, lbl, m.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderLabels renders {k="v",...}, appending an le label when le != "".
// Returns "" for a label-free series without le.
func renderLabels(keys, values []string, le string) string {
	if len(keys) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes backslash and newline, per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double quote and newline in label values.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheusFile writes the registries' exposition to path — the
// -metrics-out sink of the offline commands, the same text the daemon's
// /metrics serves live.
func WritePrometheusFile(path string, regs ...*Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePrometheus(f, regs...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
