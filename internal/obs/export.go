package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// formatFloat renders v in the shortest form that round-trips — the
// deterministic float rendering of the exporter.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered series in Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, series
// sorted by (name, labels), histograms expanded into cumulative _bucket
// series plus _sum and _count. Output is byte-deterministic for equal
// metric values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastName := ""
	for _, m := range r.snapshot() {
		if m.name != lastName {
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.name, sanitizeHelp(m.help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.typ)
			lastName = m.name
		}
		if m.hist != nil {
			writePromHistogram(bw, m)
			continue
		}
		fmt.Fprintf(bw, "%s%s %s\n", m.name, m.labelString(), formatFloat(m.value()))
	}
	return bw.Flush()
}

// writePromHistogram expands one histogram series.
func writePromHistogram(bw *bufio.Writer, m *metric) {
	bounds, cum := m.hist.Buckets()
	for i, b := range bounds {
		fmt.Fprintf(bw, "%s_bucket%s %d\n",
			m.name, withLabel(m.labels, "le", strconv.FormatUint(b, 10)), cum[i])
	}
	fmt.Fprintf(bw, "%s_bucket%s %d\n", m.name, withLabel(m.labels, "le", "+Inf"), m.hist.Count())
	fmt.Fprintf(bw, "%s_sum%s %d\n", m.name, labelString(m.labels), m.hist.Sum())
	fmt.Fprintf(bw, "%s_count%s %d\n", m.name, labelString(m.labels), m.hist.Count())
}

// withLabel renders the label set plus one extra pair appended.
func withLabel(labels []Label, key, value string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: key, Value: value})
	return labelString(all)
}

func labelString(labels []Label) string {
	return (&metric{labels: labels}).labelString()
}

// sanitizeHelp keeps HELP lines single-line.
func sanitizeHelp(s string) string {
	return strings.NewReplacer("\n", " ", "\\", `\\`).Replace(s)
}
