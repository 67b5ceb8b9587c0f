package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = float64(n - i) // descending: tail must sort
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{n: 100, value: 90, pct: 90, beyond: 10},             // the highest percentile with 10 beyond
		{n: 200, value: 190, pct: 95, beyond: 10},            // sample count moves the percentile up
		{n: 22, value: 12, pct: 100.0 * 12 / 22, beyond: 10}, // the lowest count with a tail
		{n: 21, value: 21, pct: 100, beyond: 0},              // the rule would land on the median
		{n: 5000, value: 4950, pct: 99, beyond: 50},          // capped at p99
		{n: 5, value: 5, pct: 100, beyond: 0},                // too few samples: the maximum
	} {
		v, pct, beyond := seq(tc.n).tail()
		if v != tc.value || pct != tc.pct || beyond != tc.beyond {
			t.Errorf("n=%d: tail = %v at p%v with %d beyond, want %v at p%v with %d", tc.n, v, pct, beyond, tc.value, tc.pct, tc.beyond)
		}
	}
	if v, _, _ := (samples{}).tail(); v != 0 {
		t.Errorf("empty tail = %v", v)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if got := s.p50(); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := s.quantile(0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
}

func TestClassSamplesBlockMedians(t *testing.T) {
	r := newResult()
	r.classSamples("a", "test", samples{1, 1, 1}, samples{2, 2, 2}, samples{9, 9, 9})
	if r.e2e["a_p50_ms"] != 2 {
		t.Errorf("median of block p50s = %v, want 2", r.e2e["a_p50_ms"])
	}
}

// fullResult sets every metric of both tables.
func fullResult() *result {
	r := newResult()
	r.attempted = 10
	for i, d := range endToEnd {
		r.e2e[d.name] = float64(i) + 0.5
	}
	r.zeroLayers()
	return r
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		var out bytes.Buffer
		if err := fullResult().print(&out, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !last.Correct || last.Attempted != 10 || last.Failed != 0 || len(last.Metrics) != len(defs) {
			t.Errorf("traced=%v: result line %+v", traced, last)
		}
		for _, d := range defs {
			if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: metric %s printed as %+v, want unit %s", traced, d.name, m, d.unit)
			}
			if !strings.Contains(out.String(), "metric "+d.name+" ") {
				t.Errorf("traced=%v: metric %s missing from the report", traced, d.name)
			}
		}
	}
}

func TestPrintRefusesMissingMetric(t *testing.T) {
	r := fullResult()
	delete(r.e2e, "setup_s")
	if err := r.print(&bytes.Buffer{}, false); err == nil {
		t.Error("a result without setup_s printed")
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  []metric
		want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", tc.name, len(tc.got), len(tc.want))
		}
		for i, d := range tc.want {
			if g := tc.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", tc.name, i, g, d)
			}
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
