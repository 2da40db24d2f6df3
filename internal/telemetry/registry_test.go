package telemetry

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"vscale/internal/metrics"
	"vscale/internal/sim"
)

func TestRenderPromFormat(t *testing.T) {
	r := NewRegistry("policy", "vscale")
	r.GaugeSeries("vscale_host_util_ratio", "pCPU busy fraction", "host", "0").Set(0.25)
	r.GaugeSeries("vscale_host_util_ratio", "pCPU busy fraction", "host", "1").Set(0.5)
	r.CounterSeries("vscale_fleet_vms_placed_total", "VM admissions").Set(3)
	h := metrics.NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 50} {
		h.Observe(v)
	}
	r.SummarySeries("vscale_vm_reply_latency_ms", "reply latency", "host", "0", "vm", "vm0").
		SetFromHistogram(h, 0.5, 0.99)

	out := string(r.RenderProm())
	for _, want := range []string{
		"# HELP vscale_fleet_vms_placed_total VM admissions\n# TYPE vscale_fleet_vms_placed_total counter\nvscale_fleet_vms_placed_total{policy=\"vscale\"} 3\n",
		"# TYPE vscale_host_util_ratio gauge\n",
		"vscale_host_util_ratio{host=\"0\",policy=\"vscale\"} 0.25\n",
		"vscale_host_util_ratio{host=\"1\",policy=\"vscale\"} 0.5\n",
		"# TYPE vscale_vm_reply_latency_ms summary\n",
		"vscale_vm_reply_latency_ms{host=\"0\",policy=\"vscale\",vm=\"vm0\",quantile=\"0.5\"}",
		"vscale_vm_reply_latency_ms_sum{host=\"0\",policy=\"vscale\",vm=\"vm0\"} 105.5\n",
		"vscale_vm_reply_latency_ms_count{host=\"0\",policy=\"vscale\",vm=\"vm0\"} 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render in name order.
	if strings.Index(out, "vscale_fleet_vms_placed_total") > strings.Index(out, "vscale_host_util_ratio") {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
}

func TestRenderPromEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeSeries("g", "line1\nline2 \\ back", "l", "a\"b\\c\nd").Set(1)
	out := string(r.RenderProm())
	if !strings.Contains(out, `# HELP g line1\nline2 \\ back`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `g{l="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestSeriesIdentityAndLabelOrder(t *testing.T) {
	r := NewRegistry()
	a := r.GaugeSeries("g", "", "x", "1", "y", "2")
	b := r.GaugeSeries("g", "", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label order created distinct series")
	}
	if c := r.GaugeSeries("g", "", "x", "1", "y", "3"); c == a {
		t.Fatal("different label values shared a series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a gauge as a counter did not panic")
		}
	}()
	r.Counter("m", "")
}

func TestReservedLabelPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("reserved label key did not panic")
		}
	}()
	r.GaugeSeries("m", "", "quantile", "0.5")
}

func TestRenderJSONLDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry("policy", "static")
		r.GaugeSeries("vscale_sim_seconds", "virtual time").Set(1.5)
		r.CounterSeries("vscale_vm_cpu_seconds_total", "", "vm", "vm0", "host", "0").Set(0.125)
		h := metrics.NewHistogram([]float64{1, 10})
		h.Observe(3)
		r.SummarySeries("vscale_vm_reply_latency_ms", "", "vm", "vm0", "host", "0").
			SetFromHistogram(h, 0.5, 0.95)
		return r
	}
	a, err := build().AppendJSONL(nil, 7, 3*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().AppendJSONL(nil, 7, 3*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("identical registries rendered different JSONL:\n%s\n%s", a, b)
	}
	line := string(a)
	for _, want := range []string{
		`"schema":"vscale-telemetry/v1"`, `"epoch":7`, `"vt_ms":3000`,
		`"name":"vscale_vm_reply_latency_ms"`, `"count":1`, `"quantiles"`,
		`"labels":{"host":"0","policy":"static","vm":"vm0"}`,
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("JSONL missing %q:\n%s", want, line)
		}
	}
	if !strings.HasSuffix(line, "\n") {
		t.Fatal("JSONL record not newline-terminated")
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	cases := map[float64]string{0.25: "0.25", 1e21: "1e+21"}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// The encoding/json record schema and renderer that AppendJSONL
// replaced, kept as the reference it must match byte for byte. It sorts
// families and series itself instead of trusting the registry's
// maintained render order, so the comparison covers the order too.
type refQuantile struct {
	Q float64 `json:"q"`
	V float64 `json:"v"`
}

type refSeries struct {
	Name      string            `json:"name"`
	Labels    map[string]string `json:"labels,omitempty"`
	Value     *float64          `json:"value,omitempty"`
	Count     *uint64           `json:"count,omitempty"`
	Sum       *float64          `json:"sum,omitempty"`
	Quantiles []refQuantile     `json:"quantiles,omitempty"`
}

type refRecord struct {
	Schema string      `json:"schema"`
	Epoch  int         `json:"epoch"`
	VtMs   float64     `json:"vt_ms"`
	Series []refSeries `json:"series"`
}

func referenceJSONL(r *Registry, epoch int, now sim.Time) ([]byte, error) {
	rec := refRecord{Schema: SchemaJSONL, Epoch: epoch, VtMs: now.Milliseconds()}
	fams := append([]*Family(nil), r.fams...)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		series := append([]*Series(nil), f.series...)
		sort.Slice(series, func(i, j int) bool { return series[i].sig < series[j].sig })
		for _, s := range series {
			js := refSeries{Name: f.name}
			if len(s.labels) > 0 {
				js.Labels = make(map[string]string, len(s.labels))
				for _, p := range s.labels {
					js.Labels[p.k] = p.v
				}
			}
			if f.kind == KindSummary {
				count, sum := s.count, sanitizeJSON(s.sum)
				js.Count, js.Sum = &count, &sum
				for _, q := range s.quantiles {
					js.Quantiles = append(js.Quantiles, refQuantile{Q: q.Q, V: sanitizeJSON(q.V)})
				}
			} else {
				v := sanitizeJSON(s.value)
				js.Value = &v
			}
			rec.Series = append(rec.Series, js)
		}
	}
	out, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Label values and sample values that stress the encoder: JSON and HTML
// escapes, line separators, invalid UTF-8, the float format cutoffs,
// signed zero, extremes and non-finite values.
var (
	jsonTrickyStrings = []string{
		"", "0", "vm-12", `"`, `\`, "<", ">", "&", "\n", "\u2028", "\u2029",
		"\xff", "a\xfeb\xff", "\x00\x1f\t\r", "é", `a"b\c</script>&amp;`,
	}
	jsonTrickyValues = []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64,
		1<<53 + 1, -1e-7, -9.999999e-7, -1e21, 0.1, 1.5, 123456789, 1e-300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	jsonFamilies = []struct {
		name string
		kind Kind
	}{
		{"vscale_sim_seconds", KindGauge}, {"a", KindCounter}, {"z:total", KindCounter},
		{"_lat_ms", KindSummary}, {"vscale_vm_reply_latency_ms", KindSummary}, {"Mid", KindGauge},
	}
	jsonLabelKeys = []string{"host", "vm", "a", "Z_9", "_"}
)

func randJSONString(rng *rand.Rand) string {
	if rng.IntN(2) == 0 {
		return jsonTrickyStrings[rng.IntN(len(jsonTrickyStrings))]
	}
	b := make([]byte, rng.IntN(8))
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return string(b)
}

func randJSONValue(rng *rand.Rand) float64 {
	switch rng.IntN(4) {
	case 0, 1:
		return jsonTrickyValues[rng.IntN(len(jsonTrickyValues))]
	case 2:
		return math.Float64frombits(rng.Uint64())
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(60)-30))
	}
}

// setSummary writes a summary series directly, including values no
// histogram produces (the encoder tests feed random and non-finite ones).
func setSummary(s *Series, count uint64, sum float64, quantiles []Quantile) {
	s.count, s.sum, s.quantiles = count, sum, quantiles
}

// randRegistry fills a registry with up to maxSeries random series of
// every kind, including summaries with 0, 1 and 3 quantiles.
func randRegistry(rng *rand.Rand, maxSeries int) *Registry {
	var base []string
	for _, k := range []string{"policy", "run"} {
		if rng.IntN(2) == 0 {
			base = append(base, k, randJSONString(rng))
		}
	}
	r := NewRegistry(base...)
	if rng.IntN(4) == 0 {
		r.Gauge("empty_family", "a family without series") // renders nothing
	}
	n := rng.IntN(maxSeries + 1)
	for i := 0; i < n; i++ {
		fam := jsonFamilies[rng.IntN(len(jsonFamilies))]
		var kv []string
		for _, k := range jsonLabelKeys {
			if rng.IntN(3) == 0 {
				kv = append(kv, k, randJSONString(rng))
			}
		}
		switch fam.kind {
		case KindGauge:
			r.GaugeSeries(fam.name, "", kv...).Set(randJSONValue(rng))
		case KindCounter:
			r.CounterSeries(fam.name, "", kv...).Set(randJSONValue(rng))
		case KindSummary:
			qs := []Quantile{}
			for _, q := range [][]float64{nil, {0.5}, {0.5, 0.95, 0.99}, {0, 1e-7, 1}}[rng.IntN(4)] {
				qs = append(qs, Quantile{Q: q, V: randJSONValue(rng)})
			}
			setSummary(r.SummarySeries(fam.name, "", kv...), rng.Uint64()>>rng.IntN(64), randJSONValue(rng), qs)
		}
	}
	return r
}

// TestAppendJSONLMatchesEncodingJSON is the encoder's contract: on
// randomized registries AppendJSONL writes exactly the bytes the
// encoding/json reference renders, appended after whatever dst held.
// Every tenth registry is empty ("series":null).
func TestAppendJSONLMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var buf []byte
	for trial := 0; trial < 500; trial++ {
		maxSeries := 30
		if trial%10 == 0 {
			maxSeries = 0
		}
		r := randRegistry(rng, maxSeries)
		for epoch := 0; epoch < 3; epoch++ {
			e := rng.IntN(1 << 20)
			now := sim.Time(rng.Int64N(1 << 50))
			want, err := referenceJSONL(r, e, now)
			if err != nil {
				t.Fatalf("trial %d: reference: %v", trial, err)
			}
			buf = append(buf[:0], "prior bytes\n"...)
			got, err := r.AppendJSONL(buf, e, now)
			if err != nil {
				t.Fatalf("trial %d: AppendJSONL: %v", trial, err)
			}
			if string(got[:12]) != "prior bytes\n" || string(got[12:]) != string(want) {
				t.Fatalf("trial %d epoch %d:\n got %q\nwant %q", trial, e, got[12:], want)
			}
			buf = got
			// Overwrite some values in place, as the next collection
			// epoch would.
			for _, f := range r.fams {
				for _, s := range f.series {
					if rng.IntN(2) == 0 {
						s.Set(randJSONValue(rng))
						s.sum = randJSONValue(rng)
					}
				}
			}
		}
	}
}

// TestAppendJSONLNonFiniteQuantileIsError: a non-finite quantile rank
// cannot be carried by JSON; both renderers refuse it, and AppendJSONL
// leaves dst as it was.
func TestAppendJSONLNonFiniteQuantileIsError(t *testing.T) {
	for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := NewRegistry()
		r.GaugeSeries("g", "").Set(1)
		setSummary(r.SummarySeries("s", "", "vm", "a"), 1, 2, []Quantile{{Q: 0.5, V: 1}, {Q: q, V: 3}})
		if _, err := referenceJSONL(r, 0, 0); err == nil {
			t.Fatalf("quantile %v: reference renderer accepted it", q)
		}
		got, err := r.AppendJSONL([]byte("kept"), 0, 0)
		if err == nil {
			t.Fatalf("quantile %v: AppendJSONL accepted it", q)
		}
		if string(got) != "kept" {
			t.Fatalf("quantile %v: dst = %q after the error, want %q", q, got, "kept")
		}
	}
}
