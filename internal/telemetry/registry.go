// Package telemetry is the live-observability layer of the vScale
// reproduction: a small Prometheus-style metric registry fed by
// periodic simulation-time collection epochs, exposed two ways — a
// /metrics scrape endpoint served alongside a running simulation
// (server.go) and a deterministic JSONL time-series stream (sink.go).
// The host and VM families every simulated host exports are defined
// once, in hostvm.go.
//
// Everything in the registry is stamped with virtual time only and
// sampled at epoch boundaries while the simulation engines are parked,
// so telemetry is purely observational: enabling it changes no
// simulation result, and two runs with the same seed emit byte-identical
// JSONL. The exposition format follows the Prometheus text format
// (version 0.0.4), the same surface KubeVirt's domainstats collector
// scrapes per VM and per host from a live hypervisor.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"vscale/internal/metrics"
	"vscale/internal/sim"
)

// Kind is a metric family's type, mirroring the Prometheus TYPE line.
type Kind int

// Metric kinds.
const (
	// KindGauge is an instantaneous level (utilisation, active vCPUs).
	KindGauge Kind = iota
	// KindCounter is a cumulative monotonically increasing total. The
	// collectors sample cumulative totals from the simulation each
	// epoch, so Set (not Add) is the usual update.
	KindCounter
	// KindSummary is a quantile summary: count, sum and a fixed set of
	// quantiles, the shape of a Prometheus summary family.
	KindSummary
)

func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindCounter:
		return "counter"
	case KindSummary:
		return "summary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// labelPair is one label key/value.
type labelPair struct{ k, v string }

// Quantile is one (quantile, value) point of a summary series.
type Quantile struct {
	Q float64
	V float64
}

// Series is one labelled time series of a family. Values are replaced
// wholesale at every collection epoch; the registry retains the last
// written value between epochs (a departed VM's series freezes at its
// final values, exactly like a real exporter).
type Series struct {
	labels []labelPair // sorted by key
	sig    string
	// prefix is the series' JSONL object up to its values,
	// {"name":…,"labels":{…}, — built once by encoding/json at creation.
	prefix []byte

	value float64 // gauge/counter

	count     uint64 // summary
	sum       float64
	quantiles []Quantile
}

// Set replaces a gauge or counter value. For counters the collectors
// sample cumulative totals from the simulation, so Set with a larger
// total is the normal update.
func (s *Series) Set(v float64) { s.value = v }

// Add increments a gauge or counter value in place.
func (s *Series) Add(delta float64) { s.value += delta }

// Value returns the current gauge/counter value.
func (s *Series) Value() float64 { return s.value }

// SetFromHistogram fills a summary series from a metrics.Histogram at
// the given quantiles (ascending), reusing the series' quantile slice.
func (s *Series) SetFromHistogram(h *metrics.Histogram, qs ...float64) {
	s.count = h.Count()
	s.sum = h.Sum()
	s.quantiles = s.quantiles[:0]
	for _, q := range qs {
		s.quantiles = append(s.quantiles, Quantile{Q: q, V: h.Quantile(q)})
	}
}

// Family is one named metric family holding any number of labelled
// series.
type Family struct {
	name string
	help string
	kind Kind

	series []*Series // sorted by signature: the render order
	bySig  map[string]*Series
}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// Kind returns the family kind.
func (f *Family) Kind() Kind { return f.kind }

// Registry is a set of metric families. It is not safe for concurrent
// use: one collector owns one registry and updates it between epochs,
// handing immutable rendered snapshots to the scrape server.
type Registry struct {
	fams   []*Family // sorted by name: the render order
	byName map[string]*Family
	base   []labelPair

	// pairs and sig are the lookup scratch: a series that already
	// exists is found without allocating.
	pairs []labelPair
	sig   []byte
}

// NewRegistry returns an empty registry whose every series carries the
// given base label key/value pairs (e.g. policy="vscale", hosts="2").
func NewRegistry(baseKV ...string) *Registry {
	if len(baseKV)%2 != 0 {
		panic("telemetry: NewRegistry needs key/value pairs")
	}
	r := &Registry{byName: map[string]*Family{}}
	for i := 0; i < len(baseKV); i += 2 {
		r.base = append(r.base, labelPair{k: baseKV[i], v: baseKV[i+1]})
	}
	return r
}

// family returns the named family, creating it on first use; asking for
// an existing name with a different kind panics (two collectors
// disagreeing about a family's type is a bug, not data).
func (r *Registry) family(name, help string, kind Kind) *Family {
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: family %s registered as %v, requested as %v", name, f.kind, kind))
		}
		return f
	}
	if !validFamilyName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	f := &Family{name: name, help: help, kind: kind, bySig: map[string]*Series{}}
	r.byName[name] = f
	i, _ := slices.BinarySearchFunc(r.fams, name, func(g *Family, name string) int {
		return strings.Compare(g.name, name)
	})
	r.fams = slices.Insert(r.fams, i, f)
	return f
}

// Gauge returns (creating if needed) the named gauge family.
func (r *Registry) Gauge(name, help string) *Family { return r.family(name, help, KindGauge) }

// Counter returns (creating if needed) the named counter family.
func (r *Registry) Counter(name, help string) *Family { return r.family(name, help, KindCounter) }

// Summary returns (creating if needed) the named summary family.
func (r *Registry) Summary(name, help string) *Family { return r.family(name, help, KindSummary) }

// GaugeSeries returns the series of the named gauge family with the
// registry's base labels plus the kv pairs, creating either on first
// use. Label keys are sorted, so their order at the call site does not
// matter. It panics on an odd-length kv list, an invalid or duplicate
// key, or the reserved keys "quantile" and "le" (a configuration error,
// like a malformed histogram bound).
func (r *Registry) GaugeSeries(name, help string, kv ...string) *Series {
	return r.seriesOf(r.Gauge(name, help), kv)
}

// CounterSeries is GaugeSeries for a counter family.
func (r *Registry) CounterSeries(name, help string, kv ...string) *Series {
	return r.seriesOf(r.Counter(name, help), kv)
}

// SummarySeries is GaugeSeries for a summary family.
func (r *Registry) SummarySeries(name, help string, kv ...string) *Series {
	return r.seriesOf(r.Summary(name, help), kv)
}

// seriesOf merges the base and call labels and builds the signature in
// the registry's scratch, so finding an existing series allocates
// nothing; only a new series copies its labels out. The label checks
// are allocation-free too and run on every lookup, so a bad label set
// panics even when its signature happens to match an existing series.
func (r *Registry) seriesOf(f *Family, kv []string) *Series {
	if len(kv)%2 != 0 {
		panic("telemetry: series needs key/value pairs")
	}
	pairs := append(r.pairs[:0], r.base...)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, labelPair{k: kv[i], v: kv[i+1]})
	}
	// Insertion sort by key: label sets are a handful of pairs, and
	// sort.Slice would allocate its closure and swapper on every call.
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	sig := r.sig[:0]
	for i, p := range pairs {
		if !validLabelKey(p.k) {
			panic(fmt.Sprintf("telemetry: invalid label key %q", p.k))
		}
		if p.k == "quantile" || p.k == "le" {
			panic(fmt.Sprintf("telemetry: label key %q is reserved", p.k))
		}
		if i > 0 {
			if pairs[i-1].k == p.k {
				panic(fmt.Sprintf("telemetry: duplicate label key %q", p.k))
			}
			sig = append(sig, 0xff)
		}
		sig = append(sig, p.k...)
		sig = append(sig, 0xfe)
		sig = append(sig, p.v...)
	}
	r.pairs, r.sig = pairs, sig
	if s, ok := f.bySig[string(sig)]; ok {
		return s
	}
	return f.add(slices.Clone(pairs), string(sig))
}

// add creates a series and inserts it at its place in the render order.
func (f *Family) add(labels []labelPair, sig string) *Series {
	s := &Series{labels: labels, sig: sig, prefix: jsonPrefix(f.name, labels)}
	f.bySig[sig] = s
	i, _ := slices.BinarySearchFunc(f.series, sig, func(t *Series, sig string) int {
		return strings.Compare(t.sig, sig)
	})
	f.series = slices.Insert(f.series, i, s)
	return s
}

// RenderProm renders the whole registry in the Prometheus text
// exposition format (version 0.0.4): families in name order, series in
// label order — a deterministic function of the registry contents. The
// result is a fresh slice the scrape server may keep.
func (r *Registry) RenderProm() []byte {
	var b strings.Builder
	for _, f := range r.fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case KindSummary:
				for _, q := range s.quantiles {
					b.WriteString(f.name)
					writeLabels(&b, s.labels, "quantile", formatFloat(q.Q))
					b.WriteByte(' ')
					b.WriteString(formatFloat(q.V))
					b.WriteByte('\n')
				}
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(s.sum))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(s.count, 10))
				b.WriteByte('\n')
			default:
				b.WriteString(f.name)
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(s.value))
				b.WriteByte('\n')
			}
		}
	}
	return []byte(b.String())
}

// SchemaJSONL is the schema tag carried by every JSONL record.
const SchemaJSONL = "vscale-telemetry/v1"

// The JSONL record (vscale-telemetry/v1) is one object per epoch:
//
//	{"schema":…,"epoch":N,"vt_ms":F,"series":[S,…]}
//
// where each S is {"name":…,"labels":{…},"value":F} for a gauge or
// counter and {"name":…,"labels":{…},"count":N,"sum":F,"quantiles":
// [{"q":F,"v":F},…]} for a summary. "labels" is absent without labels,
// "quantiles" without quantiles, and "series" is null without series.
// These are exactly the bytes encoding/json renders for that schema
// (map keys sorted, strings HTML-escaped, floats by appendJSONFloat);
// registry_test.go pins the equivalence against an encoding/json
// reference renderer.

// jsonPrefix renders a series' JSONL object up to its values with
// encoding/json, so label escaping is encoding/json's own.
func jsonPrefix(name string, labels []labelPair) []byte {
	head := struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels,omitempty"`
	}{Name: name}
	if len(labels) > 0 {
		head.Labels = make(map[string]string, len(labels))
		for _, p := range labels {
			head.Labels[p.k] = p.v
		}
	}
	b, err := json.Marshal(head)
	if err != nil {
		panic(fmt.Sprintf("telemetry: encoding series %s: %v", name, err)) // strings and a string map always encode
	}
	b[len(b)-1] = ',' // the closing brace: the values follow
	return b
}

// AppendJSONL appends one newline-terminated JSONL record of the whole
// registry at the given collection epoch and virtual time to dst.
// Families and series appear in the same deterministic order as
// RenderProm. Non-finite values, sums and quantile values are written
// as 0; a non-finite quantile rank is an error, and leaves dst as it
// was.
func (r *Registry) AppendJSONL(dst []byte, epoch int, now sim.Time) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"schema":"`+SchemaJSONL+`","epoch":`...)
	dst = strconv.AppendInt(dst, int64(epoch), 10)
	dst = append(dst, `,"vt_ms":`...)
	dst = appendJSONFloat(dst, now.Milliseconds())
	dst = append(dst, `,"series":`...)
	open := len(dst)
	for _, f := range r.fams {
		for _, s := range f.series {
			if len(dst) == open {
				dst = append(dst, '[')
			} else {
				dst = append(dst, ',')
			}
			dst = append(dst, s.prefix...)
			if f.kind != KindSummary {
				dst = append(dst, `"value":`...)
				dst = appendJSONFloat(dst, sanitizeJSON(s.value))
				dst = append(dst, '}')
				continue
			}
			dst = append(dst, `"count":`...)
			dst = strconv.AppendUint(dst, s.count, 10)
			dst = append(dst, `,"sum":`...)
			dst = appendJSONFloat(dst, sanitizeJSON(s.sum))
			for i, q := range s.quantiles {
				if math.IsNaN(q.Q) || math.IsInf(q.Q, 0) {
					return dst[:start], fmt.Errorf("telemetry: %s: unsupported quantile %v", f.name, q.Q)
				}
				if i == 0 {
					dst = append(dst, `,"quantiles":[`...)
				} else {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"q":`...)
				dst = appendJSONFloat(dst, q.Q)
				dst = append(dst, `,"v":`...)
				dst = appendJSONFloat(dst, sanitizeJSON(q.V))
				dst = append(dst, '}')
			}
			if len(s.quantiles) > 0 {
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
	}
	if len(dst) == open {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// appendJSONFloat appends a finite float64 the way encoding/json
// renders one: shortest round-trip digits, in exponent form only below
// 1e-6 or from 1e21 up (the ES6 number-to-string cutoffs), with a
// two-digit negative exponent's leading zero dropped (e-07 → e-7).
func appendJSONFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// sanitizeJSON maps non-finite values (which JSON cannot carry) to 0;
// the collectors never produce them, but a defensive exporter beats a
// mid-run marshal error.
func sanitizeJSON(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// writeLabels renders {k="v",...} with the optional extra pair appended
// (the summary quantile label); an empty label set with no extra
// renders nothing.
func writeLabels(b *strings.Builder, labels []labelPair, extraK, extraV string) {
	if len(labels) == 0 && extraK == "" {
		return
	}
	b.WriteByte('{')
	for i, p := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip form, with the special spellings for infinities
// and NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeLabelValue escapes backslash, double quote and newline per the
// exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// validFamilyName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validFamilyName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabelKey checks the Prometheus label-name grammar
// [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
