package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the Prometheus text exposition format: a
// small parser for the subset this repo's own WritePrometheus emits, used
// by rmcc-top to consume a live rmccd /metrics endpoint without a client
// library. It understands # comments, labeled samples, and the three
// label-value escapes the format defines, and it can reassemble _bucket
// series into quantile estimates.

// PromSample is one parsed sample line.
type PromSample struct {
	// Name is the metric name (including any _bucket/_sum/_count suffix).
	Name string
	// Labels holds the sample's label pairs in appearance order.
	Labels []Label
	// Value is the sample value.
	Value float64
}

// Label returns the value of the named label ("" when absent).
func (s PromSample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// PromText is a parsed metrics page.
type PromText struct {
	Samples []PromSample
}

// ParsePromText parses a Prometheus text exposition page (the subset
// WritePrometheus emits: # comments, name{labels} value lines). Malformed
// lines abort with an error naming the line number.
func ParsePromText(r io.Reader) (*PromText, error) {
	out := &PromText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo, err)
		}
		out.Samples = append(out.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parsePromLine parses one sample line: name[{k="v",...}] value.
func parsePromLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parsePromLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// Timestamps (a trailing integer) are not emitted by this repo's
	// exporter; take the first field as the value and ignore the rest.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := parsePromValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

// parsePromValue parses a sample value, including the format's +Inf/-Inf/
// NaN spellings.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parsePromLabels parses a {k="v",...} block, returning the labels and
// the remainder of the line. Handles the three defined escapes \\, \",
// and \n inside quoted values.
func parsePromLabels(s string) ([]Label, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, fmt.Errorf("label block must start with '{'")
	}
	var labels []Label
	i := 1
	for {
		// Allow {} and trailing commas.
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, s, fmt.Errorf("label name without '=' in %q", s[i:])
		}
		key := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, s, fmt.Errorf("label value for %q not quoted", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, s, fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, s, fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					// Unknown escapes pass through verbatim, matching the
					// Prometheus parser's leniency.
					val.WriteByte('\\')
					val.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Key: key, Value: val.String()})
	}
}

// Value returns the first sample with the given name whose labels include
// every pair in want (extra labels are ignored). ok is false when absent.
func (p *PromText) Value(name string, want ...Label) (v float64, ok bool) {
	for _, s := range p.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for _, w := range want {
			if s.Label(w.Key) != w.Value {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// HistQuantile estimates the q-quantile of the histogram metric name
// (its _bucket series) restricted to samples matching the given label
// pairs — the client-side counterpart of Histogram.Quantile, computed
// from cumulative le buckets by linear interpolation. ok is false when no
// buckets match or the histogram is empty.
func (p *PromText) HistQuantile(name string, q float64, want ...Label) (v float64, ok bool) {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	for _, s := range p.Samples {
		if s.Name != name+"_bucket" {
			continue
		}
		match := true
		for _, w := range want {
			if s.Label(w.Key) != w.Value {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		le, err := parsePromValue(s.Label("le"))
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: le, cum: s.Value})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	n := len(buckets)
	if math.IsInf(buckets[n-1].le, 1) {
		n--
	}
	return bucketQuantile(q, total, n, func(i int) (le, cum float64) {
		return buckets[i].le, buckets[i].cum
	}), true
}
