package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file implements the OpenMetrics text exposition (the format
// Prometheus scrapes) of MetricsSource families, plus a strict lint
// parser used by the verify-observe CI gate. Only the stdlib is
// used; the subset implemented is the one the simulator emits:
// gauge, counter and histogram families, label sets, and the
// mandatory `# EOF` terminator.

// OpenMetricsContentType is the Content-Type of the /metrics endpoint.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Label is one metric label pair.
type Label struct {
	Key   string
	Value string
}

// Sample is one exposition line of a family: the family name plus
// Suffix (e.g. "_total", "_bucket", "_count", "_sum"), its labels and
// value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// MetricFamily is one named metric with its type and samples.
type MetricFamily struct {
	Name    string // sanitized OpenMetrics name, no suffix
	Type    string // "gauge", "counter" or "histogram"
	Samples []Sample
}

// MetricsSource supplies metric families for exposition; the debug
// server's /metrics endpoint concatenates its attached sources.
// Implementations must be safe for concurrent use — HTTP handler
// goroutines call them while the owning component runs.
type MetricsSource interface {
	MetricFamilies() []MetricFamily
}

// formatMetricValue renders a sample value in OpenMetrics syntax.
func formatMetricValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WriteOpenMetrics writes the families as OpenMetrics text exposition,
// terminated by the mandatory `# EOF` line. Families with duplicate
// names (e.g. from multiple sources) are merged in first-seen order
// under the first family's type.
func WriteOpenMetrics(w io.Writer, families []MetricFamily) error {
	merged := []MetricFamily{}
	index := map[string]int{}
	for _, f := range families {
		if i, ok := index[f.Name]; ok {
			merged[i].Samples = append(merged[i].Samples, f.Samples...)
			continue
		}
		index[f.Name] = len(merged)
		merged = append(merged, f)
	}
	for _, f := range merged {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			var b strings.Builder
			b.WriteString(f.Name)
			b.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatMetricValue(s.Value))
			b.WriteByte('\n')
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// --- strict lint ---------------------------------------------------------

// LintOpenMetrics is a strict parser over the subset of the
// OpenMetrics text format the simulator emits. It verifies structure
// the spec mandates — `# EOF` termination, name and label syntax,
// TYPE-before-samples, non-interleaved families, `_total` counter
// samples, cumulative ascending histogram buckets with a `+Inf`
// bucket matching `_count`, parseable values, no duplicate series —
// and returns the first violation found. The verify-observe gate scrapes
// /metrics and runs this.
func LintOpenMetrics(text []byte) error {
	lines := strings.Split(string(text), "\n")
	if len(lines) < 2 || lines[len(lines)-1] != "" || lines[len(lines)-2] != "# EOF" {
		return fmt.Errorf("openmetrics: exposition must end with a \"# EOF\" line")
	}
	lines = lines[:len(lines)-2]

	type familyState struct {
		typ     string
		done    bool // a later family started; reappearing is interleaving
		buckets map[string]float64
		lastLe  float64
		count   map[string]float64
	}
	families := map[string]*familyState{}
	var current string
	seen := map[string]bool{}

	// sampleFamily resolves a sample name to its declared family by
	// stripping known suffixes; an exact family-name match wins.
	sampleFamily := func(name string) (string, string) {
		if _, ok := families[name]; ok {
			return name, ""
		}
		for _, suf := range []string{"_total", "_created", "_bucket", "_count", "_sum"} {
			if base, ok := strings.CutSuffix(name, suf); ok {
				if _, ok := families[base]; ok {
					return base, suf
				}
			}
		}
		return "", ""
	}

	for n, line := range lines {
		lineNo := n + 1
		if line == "" {
			return fmt.Errorf("openmetrics: line %d: empty line before # EOF", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP" && fields[1] != "UNIT") {
				return fmt.Errorf("openmetrics: line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] != "TYPE" {
				continue
			}
			name, typ := fields[2], strings.Join(fields[3:], " ")
			if !validMetricName(name) {
				return fmt.Errorf("openmetrics: line %d: invalid metric name %q", lineNo, name)
			}
			switch typ {
			case "gauge", "counter", "histogram", "summary", "info", "stateset", "unknown":
			default:
				return fmt.Errorf("openmetrics: line %d: unknown type %q", lineNo, typ)
			}
			if f, ok := families[name]; ok && (f.typ != "" || f.done) {
				return fmt.Errorf("openmetrics: line %d: duplicate or late TYPE for family %q", lineNo, name)
			}
			if current != "" && current != name {
				families[current].done = true
			}
			families[name] = &familyState{typ: typ, buckets: map[string]float64{}, lastLe: math.Inf(-1), count: map[string]float64{}}
			current = name
			continue
		}

		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("openmetrics: line %d: %v", lineNo, err)
		}
		fam, suffix := sampleFamily(name)
		if fam == "" {
			return fmt.Errorf("openmetrics: line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		f := families[fam]
		if f.done {
			return fmt.Errorf("openmetrics: line %d: family %q is interleaved with another family", lineNo, fam)
		}
		if fam != current {
			if current != "" {
				families[current].done = true
			}
			current = fam
		}
		key := name + "{" + labels.key() + "}"
		if seen[key] {
			return fmt.Errorf("openmetrics: line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true

		switch f.typ {
		case "counter":
			if suffix != "_total" && suffix != "_created" {
				return fmt.Errorf("openmetrics: line %d: counter sample %q must end in _total", lineNo, name)
			}
			if value < 0 {
				return fmt.Errorf("openmetrics: line %d: negative counter value %g", lineNo, value)
			}
		case "histogram":
			switch suffix {
			case "_bucket":
				le, ok := labels.get("le")
				if !ok {
					return fmt.Errorf("openmetrics: line %d: histogram bucket without le label", lineNo)
				}
				leV, err := parseLe(le)
				if err != nil {
					return fmt.Errorf("openmetrics: line %d: %v", lineNo, err)
				}
				groupKey := labels.keyWithout("le")
				// Buckets of one label set must be ascending in le and
				// cumulative in value.
				if prev, ok := f.buckets[groupKey]; ok {
					if leV <= f.lastLe {
						return fmt.Errorf("openmetrics: line %d: histogram le %g not ascending", lineNo, leV)
					}
					if value < prev {
						return fmt.Errorf("openmetrics: line %d: histogram buckets not cumulative (%g after %g)", lineNo, value, prev)
					}
				}
				f.buckets[groupKey] = value
				f.lastLe = leV
				if math.IsInf(leV, 1) {
					f.lastLe = math.Inf(-1)
					if c, ok := f.count[groupKey]; ok && c != value {
						return fmt.Errorf("openmetrics: line %d: histogram +Inf bucket %g != _count %g", lineNo, value, c)
					}
				}
			case "_count":
				groupKey := labels.key()
				f.count[groupKey] = value
				// The buckets of this label set end with +Inf, so the last
				// recorded cumulative value must equal _count.
				if inf, ok := f.buckets[groupKey]; ok && inf != value {
					return fmt.Errorf("openmetrics: line %d: histogram _count %g != +Inf bucket %g", lineNo, value, inf)
				}
			case "_sum", "_created":
			default:
				return fmt.Errorf("openmetrics: line %d: unexpected histogram sample %q", lineNo, name)
			}
		case "gauge", "unknown":
			if suffix != "" {
				return fmt.Errorf("openmetrics: line %d: %s sample %q must not carry a suffix", lineNo, f.typ, name)
			}
		}
	}
	return nil
}

// labelSet is a parsed sample's label pairs in line order.
type labelSet []Label

func (ls labelSet) get(key string) (string, bool) {
	for _, l := range ls {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

func (ls labelSet) key() string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (ls labelSet) keyWithout(key string) string {
	var rest labelSet
	for _, l := range ls {
		if l.Key != key {
			rest = append(rest, l)
		}
	}
	return rest.key()
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le label %q", s)
	}
	return v, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parseSampleLine parses `name{labels} value [timestamp]`.
func parseSampleLine(line string) (name string, labels labelSet, value float64, err error) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:end]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		close := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				close = i
			}
			if close >= 0 {
				break
			}
		}
		if close < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label block in %q", line)
		}
		block := rest[1:close]
		rest = rest[close+1:]
		for len(block) > 0 {
			eq := strings.IndexByte(block, '=')
			if eq < 0 || len(block) < eq+2 || block[eq+1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed label in %q", line)
			}
			key := block[:eq]
			if !validLabelName(key) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", key)
			}
			vrest := block[eq+2:]
			vend := -1
			var val strings.Builder
			for i := 0; i < len(vrest); i++ {
				if vrest[i] == '\\' && i+1 < len(vrest) {
					switch vrest[i+1] {
					case 'n':
						val.WriteByte('\n')
					case '\\', '"':
						val.WriteByte(vrest[i+1])
					default:
						return "", nil, 0, fmt.Errorf("bad escape in label value in %q", line)
					}
					i++
					continue
				}
				if vrest[i] == '"' {
					vend = i
					break
				}
				val.WriteByte(vrest[i])
			}
			if vend < 0 {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, Label{Key: key, Value: val.String()})
			block = vrest[vend+1:]
			if strings.HasPrefix(block, ",") {
				block = block[1:]
			} else if len(block) > 0 {
				return "", nil, 0, fmt.Errorf("malformed label block in %q", line)
			}
		}
	}
	if !strings.HasPrefix(rest, " ") {
		return "", nil, 0, fmt.Errorf("missing value in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("malformed value/timestamp in %q", line)
	}
	value, err = parseMetricValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

func parseMetricValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
