package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is a minimal, dependency-free Prometheus text-exposition
// encoder over the metric list (metrics.go). WriteMetrics renders it in
// the version 0.0.4 text format: `# HELP` / `# TYPE` headers, escaped
// `name{label="value"}` sample lines, and cumulative
// `_bucket`/`_sum`/`_count` triples for histograms; WriteVars renders
// the same list as plain `key value` lines.
//
// ValidateExposition is the matching checker: it re-parses an
// exposition and rejects malformed names, labels, values, and
// non-cumulative histograms. Tests scrape /metrics through it so the
// exporter cannot silently regress into the ad-hoc format it replaced.

// label is one name="value" pair on a sample.
type label struct {
	Name  string
	Value string
}

// WriteMetrics renders ms in the Prometheus text format, every family
// name prefixed with prefix. Metrics sharing a Name form one family
// (its labelled series), announced where the name first appears.
func WriteMetrics(w io.Writer, prefix string, ms []Metric) error {
	var order []string
	fams := map[string][]Metric{}
	for _, m := range ms {
		if _, ok := fams[m.Name]; !ok {
			order = append(order, m.Name)
		}
		fams[m.Name] = append(fams[m.Name], m)
	}
	var b strings.Builder
	for _, name := range order {
		fam := fams[name]
		name = prefix + name
		if !validMetricName(name) {
			return fmt.Errorf("obs: invalid metric name %q", name)
		}
		if help := fam[0].Help; help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, fam[0].Kind)
		for _, m := range fam {
			var labels []label
			if m.Label != "" {
				labels = []label{{m.Label, m.LabelValue}}
			}
			var err error
			if m.Kind == KindHistogram {
				err = writeHistogram(&b, name, labels, m)
			} else {
				err = writeSample(&b, name, labels, float64(m.Value))
			}
			if err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram accumulates m's disjoint bucket counts into the
// cumulative `le` series and derives `_count` as the total.
func writeHistogram(b *strings.Builder, name string, labels []label, m Metric) error {
	if len(m.Counts) != len(m.Bounds)+1 {
		return fmt.Errorf("obs: histogram %s: %d counts for %d bounds", name, len(m.Counts), len(m.Bounds))
	}
	cum := uint64(0)
	for i, c := range m.Counts {
		cum += c
		le := "+Inf"
		if i < len(m.Bounds) {
			le = formatFloat(m.Bounds[i])
		}
		bucket := append(append([]label(nil), labels...), label{"le", le})
		if err := writeSample(b, name+"_bucket", bucket, float64(cum)); err != nil {
			return err
		}
	}
	if err := writeSample(b, name+"_sum", labels, m.Sum); err != nil {
		return err
	}
	return writeSample(b, name+"_count", labels, float64(cum))
}

func writeSample(b *strings.Builder, name string, labels []label, v float64) error {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if !validLabelName(l.Name) {
				return fmt.Errorf("obs: invalid label name %q on %s", l.Name, name)
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
	return nil
}

// WriteVars renders ms as plain `key value` lines, easy to read and to
// diff: a labelled series prints under its dotted Key, a histogram as
// its disjoint `_le.<bound>` bucket counts plus `_sum`, and a `_ns`
// value also as a duration.
func WriteVars(w io.Writer, ms []Metric) {
	for _, m := range ms {
		key := m.Key()
		if m.Kind == KindHistogram {
			for i, c := range m.Counts {
				le := "inf"
				if i < len(m.Bounds) {
					le = formatFloat(m.Bounds[i])
				}
				fmt.Fprintf(w, "%s_le.%s %d\n", key, le, c)
			}
			fmt.Fprintf(w, "%s_sum %s\n", key, formatFloat(m.Sum))
			continue
		}
		if strings.HasSuffix(m.Name, "_ns") && m.Value > 0 {
			fmt.Fprintf(w, "%s %d (%v)\n", key, m.Value, time.Duration(m.Value))
			continue
		}
		fmt.Fprintf(w, "%s %d\n", key, m.Value)
	}
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
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
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidateExposition parses a text exposition and returns an error on
// the first format violation: bad metric/label names, unescaped label
// values, unparsable sample values, TYPE lines after samples of the
// same family, histograms with non-monotonic buckets or a missing +Inf
// bucket, or `_count` disagreeing with the +Inf bucket.
func ValidateExposition(data string) error {
	type histState struct {
		lastLe    float64
		lastCum   float64
		sawInf    bool
		infCum    float64
		count     float64
		sawCount  bool
		sawSample bool
	}
	types := map[string]string{}
	seenSamples := map[string]bool{}
	hists := map[string]*histState{} // keyed by name + label signature (minus le)

	lines := strings.Split(data, "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !validMetricName(name) {
				return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE missing type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if seenSamples[name] {
					return fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				types[name] = fields[3]
			}
			continue
		}

		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		base := name
		isBucket := false
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && types[trimmed] == "histogram" {
				base = trimmed
				isBucket = suffix == "_bucket"
				if suffix == "_count" {
					key := base + "|" + labelSig(labels, "le")
					st := hists[key]
					if st == nil {
						st = &histState{}
						hists[key] = st
					}
					st.count = value
					st.sawCount = true
				}
				break
			}
		}
		if _, typed := types[base]; !typed {
			return fmt.Errorf("line %d: sample %s has no TYPE", lineNo, base)
		}
		seenSamples[base] = true

		if isBucket {
			key := base + "|" + labelSig(labels, "le")
			st := hists[key]
			if st == nil {
				st = &histState{lastLe: math.Inf(-1)}
				hists[key] = st
			}
			le := ""
			for _, l := range labels {
				if l.Name == "le" {
					le = l.Value
				}
			}
			if le == "" {
				return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
			var bound float64
			if le == "+Inf" {
				bound = math.Inf(+1)
				st.sawInf = true
				st.infCum = value
			} else {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad le value %q", lineNo, le)
				}
			}
			if st.sawSample && bound <= st.lastLe {
				return fmt.Errorf("line %d: histogram %s buckets not ascending", lineNo, base)
			}
			if st.sawSample && value < st.lastCum {
				return fmt.Errorf("line %d: histogram %s buckets not cumulative", lineNo, base)
			}
			st.lastLe, st.lastCum, st.sawSample = bound, value, true
		}
	}
	for key, st := range hists {
		base := strings.SplitN(key, "|", 2)[0]
		if st.sawSample && !st.sawInf {
			return fmt.Errorf("histogram %s missing +Inf bucket", base)
		}
		if st.sawSample && st.sawCount && st.count != st.infCum {
			return fmt.Errorf("histogram %s: _count %v != +Inf bucket %v", base, st.count, st.infCum)
		}
	}
	return nil
}

// parseSampleLine splits `name{l="v",...} value` into parts, undoing
// label-value escapes.
func parseSampleLine(line string) (name string, labels []label, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ",")
			if rest == "" {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label in %q", line)
			}
			lname := rest[:eq]
			if !validLabelName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for len(rest) > 0 {
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c in %q", rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				if c == '"' {
					rest = rest[1:]
					closed = true
					break
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, label{Name: lname, Value: val.String()})
		}
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	value, err = parseValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	return name, labels, value, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// labelSig renders a label set minus one excluded name as a canonical
// string, so histogram series with the same dimensions group together.
func labelSig(labels []label, exclude string) string {
	kept := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.Name != exclude {
			kept = append(kept, l.Name+"="+l.Value)
		}
	}
	sort.Strings(kept)
	return strings.Join(kept, ",")
}
