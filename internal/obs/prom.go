package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promPrefix namespaces every exported metric so pmrace series never collide
// with other jobs scraped into the same Prometheus.
const promPrefix = "pmrace_"

// Label is one Prometheus label pair attached to every sample of a
// registry in a labeled exposition.
type Label struct {
	Name  string
	Value string
}

// LabeledRegistry pairs a registry with the label set identifying it in a
// merged exposition (e.g. campaign="c0001",target="pclht").
type LabeledRegistry struct {
	Labels []Label
	Reg    *Registry
}

// WritePrometheusLabeled renders registries in the Prometheus text
// exposition format (version 0.0.4), attaching each registry's label set to
// its samples: one `# TYPE` line per family followed by its samples,
// families sorted by name so output is deterministic. Families present in
// more than one registry are emitted once with one labeled sample series
// per registry — how pmraced exports per-campaign metrics from a single
// /metrics endpoint. Registries appear in argument order within a family;
// nil registries are skipped. Counters and gauges keep their registry names
// (counters already carry the `_total` convention); histograms are exported
// in base seconds as `<name>_seconds` with cumulative `_bucket` samples at
// the power-of-two microsecond bounds, plus `_sum` and `_count`.
func WritePrometheusLabeled(w io.Writer, regs ...LabeledRegistry) error {
	type series struct {
		labels string // rendered label pairs, "" or `a="b",c="d"`
		render func(io.Writer, string, string) error
	}
	type family struct {
		name   string // fully prefixed, sanitized family name
		typ    string
		series []series
	}
	byName := map[string]*family{}
	add := func(name, typ string, s series) {
		f, ok := byName[name]
		if !ok {
			f = &family{name: name, typ: typ}
			byName[name] = f
		}
		f.series = append(f.series, s)
	}

	for _, lr := range regs {
		if lr.Reg == nil {
			continue
		}
		labels := renderLabels(lr.Labels)
		snap := lr.Reg.Snapshot()
		for name, v := range snap.Counters {
			v := v
			add(promPrefix+sanitizeMetricName(name), "counter", series{
				labels: labels,
				render: func(w io.Writer, fam, lb string) error {
					_, err := fmt.Fprintf(w, "%s%s %d\n", fam, wrapLabels(lb), v)
					return err
				},
			})
		}
		for name, v := range snap.Gauges {
			v := v
			add(promPrefix+sanitizeMetricName(name), "gauge", series{
				labels: labels,
				render: func(w io.Writer, fam, lb string) error {
					_, err := fmt.Fprintf(w, "%s%s %d\n", fam, wrapLabels(lb), v)
					return err
				},
			})
		}
		for name := range snap.Histograms {
			counts, count, sumNs := lr.Reg.Histogram(name).Buckets()
			add(promPrefix+sanitizeMetricName(name)+"_seconds", "histogram", series{
				labels: labels,
				render: func(w io.Writer, fam, lb string) error {
					return renderHistogram(w, fam, lb, counts, count, sumNs)
				},
			})
		}
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := byName[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := s.render(w, f.name, s.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderLabels renders label pairs as `a="b",c="d"` (no braces), escaping
// values per the text exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeMetricName(l.Name))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// wrapLabels braces a rendered label string for a plain sample ("" stays "").
func wrapLabels(lb string) string {
	if lb == "" {
		return ""
	}
	return "{" + lb + "}"
}

// escapeLabelValue escapes backslash, double quote and newline, as the text
// exposition format requires inside label values.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\"", `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderHistogram writes the cumulative bucket series. Registry bucket i
// holds durations of at most 2^i microseconds (exclusive above 2^(i-1)), so
// its le-bound is 2^i µs expressed in seconds; the clamped overflow bucket
// has no finite bound and only surfaces in +Inf. lb carries the series'
// extra label pairs, merged before the le label.
func renderHistogram(w io.Writer, fam, lb string, counts [histBuckets]int64, count, sumNs int64) error {
	if lb != "" {
		lb += ","
	}
	var cum int64
	for i := 0; i < histBuckets-1; i++ {
		cum += counts[i]
		le := strconv.FormatFloat(float64(uint64(1)<<uint(i))/1e6, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", fam, lb, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, lb, count); err != nil {
		return err
	}
	sum := strconv.FormatFloat(float64(sumNs)/1e9, 'g', -1, 64)
	plain := strings.TrimSuffix(lb, ",")
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
		fam, wrapLabels(plain), sum, fam, wrapLabels(plain), count); err != nil {
		return err
	}
	return nil
}

// sanitizeMetricName maps a registry name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing every other rune with '_' and prefixing
// an underscore when the first rune is a digit.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
