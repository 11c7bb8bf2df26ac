package obs

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// MetricWriter emits Prometheus text exposition format (version 0.0.4).
// It tracks which metric families have had their # HELP / # TYPE header
// written, so several label series of one family share a single header
// regardless of emission order. Not safe for concurrent use — build the
// whole exposition under one writer.
type MetricWriter struct {
	w      io.Writer
	headed map[string]bool
	err    error
}

// Label is one Prometheus label pair.
type Label struct{ Name, Value string }

// NewMetricWriter wraps w.
func NewMetricWriter(w io.Writer) *MetricWriter {
	return &MetricWriter{w: w, headed: map[string]bool{}}
}

// Err returns the first write error, if any.
func (m *MetricWriter) Err() error { return m.err }

func (m *MetricWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

func (m *MetricWriter) header(name, help, typ string) {
	if m.headed[name] {
		return
	}
	m.headed[name] = true
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders {a="b",c="d"} ("" when no labels). extra labels are
// appended after the caller's (used for the histogram "le" label).
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter sample.
func (m *MetricWriter) Counter(name, help string, value float64, labels ...Label) {
	m.header(name, help, "counter")
	m.printf("%s%s %s\n", name, labelString(labels), formatValue(value))
}

// Gauge emits one gauge sample.
func (m *MetricWriter) Gauge(name, help string, value float64, labels ...Label) {
	m.header(name, help, "gauge")
	m.printf("%s%s %s\n", name, labelString(labels), formatValue(value))
}

// Histogram emits one histogram series: cumulative _bucket samples with
// "le" labels (including the +Inf bucket), plus _sum and _count.
func (m *MetricWriter) Histogram(name, help string, s HistogramSnapshot, labels ...Label) {
	m.header(name, help, "histogram")
	var cum int64
	for i, ub := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		m.printf("%s_bucket%s %d\n", name, labelString(labels, Label{"le", formatValue(ub)}), cum)
	}
	if n := len(s.Bounds); n < len(s.Counts) {
		cum += s.Counts[n]
	}
	m.printf("%s_bucket%s %d\n", name, labelString(labels, Label{"le", "+Inf"}), cum)
	m.printf("%s_sum%s %s\n", name, labelString(labels), formatValue(s.SumSeconds))
	m.printf("%s_count%s %d\n", name, labelString(labels), cum)
}

// Struct emits the scalar series a struct declares on its fields — the one
// place such a series is declared, beside the JSON name of the number it
// reports:
//
//	Hits int64 `json:"hits" metric:"mix_cache_hits_total" help:"..."`
//
// A name ending in _total is a counter (the Prometheus convention), any
// other a gauge. Fields are emitted in declaration order, struct-typed
// fields are descended into, and fields without a metric tag (labels, and
// the maps and slices behind labelled families, which their owners emit in
// explicit loops) are skipped. labels are put on every sample.
func (m *MetricWriter) Struct(v any, labels ...Label) {
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f, fv := rt.Field(i), rv.Field(i)
		name, declared := f.Tag.Lookup("metric")
		switch {
		case declared:
			emit := m.Gauge
			if strings.HasSuffix(name, "_total") {
				emit = m.Counter
			}
			if fv.CanInt() {
				emit(name, f.Tag.Get("help"), float64(fv.Int()), labels...)
			} else {
				emit(name, f.Tag.Get("help"), fv.Float(), labels...)
			}
		case fv.Kind() == reflect.Struct && f.IsExported():
			m.Struct(fv.Interface(), labels...)
		}
	}
}
