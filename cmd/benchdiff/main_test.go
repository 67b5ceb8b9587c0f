package main

import (
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	const out = `goos: linux
pkg: netdecomp/internal/dyn
BenchmarkDynRepair/rate=0.1pct-2         	      20	  17400000 ns/op	17017705 B/op	    3487 allocs/op
BenchmarkDynRecompute/rate=0.1pct-16     	      20	  85200000 ns/op	32231826 B/op	   52363 allocs/op
BenchmarkGraphBFS4096                    	      10	    181519 ns/op
BenchmarkCustom-2   	       3	   1000 ns/op	    12.50 rounds/op	  64 B/op	  2 allocs/op
BenchmarkNoRuns-2
--- FAIL: BenchmarkBroken
PASS
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]metrics{
		"BenchmarkDynRepair/rate=0.1pct":    {17400000, 17017705, 3487},
		"BenchmarkDynRecompute/rate=0.1pct": {85200000, 32231826, 52363},
		"BenchmarkGraphBFS4096":             {181519, 0, 0},
		"BenchmarkCustom":                   {1000, 64, 2},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, m := range want {
		if got[name] != m {
			t.Errorf("%s: got %+v, want %+v", name, got[name], m)
		}
	}
}

// matchesPattern applies pattern to a benchmark name the way go test does
// for the patterns benchPattern builds: any '|' alternative whose '/'
// levels all match the name's levels.
func matchesPattern(t *testing.T, pattern, name string) bool {
	t.Helper()
	for _, alt := range strings.Split(pattern, "|") {
		exprs, levels := strings.Split(alt, "/"), strings.Split(name, "/")
		ok := len(levels) >= len(exprs)
		for i := 0; ok && i < len(exprs); i++ {
			ok = regexp.MustCompile(exprs[i]).MatchString(levels[i])
		}
		if ok {
			return true
		}
	}
	return false
}

func TestBenchPattern(t *testing.T) {
	names := []string{"BenchmarkHotpathSim65536", "BenchmarkDynRepair/rate=0.1pct"}
	got := benchPattern(names)
	if want := `^BenchmarkHotpathSim65536$|^BenchmarkDynRepair$/^rate=0\.1pct$`; got != want {
		t.Fatalf("pattern %s, want %s", got, want)
	}
	for name, want := range map[string]bool{
		"BenchmarkHotpathSim65536":          true,
		"BenchmarkHotpathSim262144":         false,
		"BenchmarkObsHotpathSim65536":       false,
		"BenchmarkDynRepair/rate=0.1pct":    true,
		"BenchmarkDynRepair/rate=1pct":      false,
		"BenchmarkDynRepair/rate=0x1pct":    false,
		"BenchmarkDynRecompute/rate=0.1pct": false,
	} {
		if matchesPattern(t, got, name) != want {
			t.Errorf("%s: matched %v, want %v", name, !want, want)
		}
	}
}

func TestGroups(t *testing.T) {
	rows := []row{
		{Package: "a", Benchtime: "3x", Name: "B1"},
		{Package: "b", Benchtime: "3x", Name: "B2"},
		{Package: "a", Benchtime: "300x", Name: "B3"},
		{Package: "a", Benchtime: "3x", Name: "B4"},
	}
	gs := groups(rows)
	if len(gs) != 3 {
		t.Fatalf("got %d groups, want 3: %+v", len(gs), gs)
	}
	if g := gs[0]; g.pkg != "a" || g.benchtime != "3x" || strings.Join(g.names, ",") != "B1,B4" {
		t.Fatalf("first group %+v", g)
	}
	if gs[1].pkg != "b" || gs[2].benchtime != "300x" {
		t.Fatalf("groups out of manifest order: %+v", gs)
	}
}

// testManifest has one gated row, one informational row and one check.
func testManifest() *manifest {
	m := &manifest{Schema: schema, Rows: []row{
		{Package: "p", Name: "BenchmarkGated", Benchtime: "3x", Layer: "core",
			Gate: &gate{NS: 0.1, Allocs: 0.5}, metrics: metrics{NsPerOp: 1000, AllocsPerOp: 10}},
		{Package: "p", Name: "BenchmarkInfo", Benchtime: "3x", Layer: "core",
			metrics: metrics{NsPerOp: 500, AllocsPerOp: 4}},
	}}
	for i := range m.Rows {
		m.Rows[i].Recorded.Date, m.Rows[i].Recorded.CPU = "2026-01-01", "test cpu"
	}
	m.Checks = []check{{Name: "gated over info", Fast: "BenchmarkInfo", Slow: "BenchmarkGated", MinRatio: 1.5}}
	return m
}

func TestVerdicts(t *testing.T) {
	info := metrics{NsPerOp: 500, AllocsPerOp: 4}
	for _, tc := range []struct {
		name     string
		live     map[string]metrics
		noChecks bool
		fail     []string // substrings, one per expected failure
	}{
		{name: "within bounds", live: map[string]metrics{
			"BenchmarkGated": {NsPerOp: 1000, AllocsPerOp: 10}, "BenchmarkInfo": info}},
		{name: "exactly at the bounds", live: map[string]metrics{
			"BenchmarkGated": {NsPerOp: 1100, AllocsPerOp: 15}, "BenchmarkInfo": info}},
		{name: "ns/op over its bound", live: map[string]metrics{
			"BenchmarkGated": {NsPerOp: 1101, AllocsPerOp: 10}, "BenchmarkInfo": info},
			fail: []string{"BenchmarkGated: ns/op"}},
		{name: "allocs/op over its bound", live: map[string]metrics{
			"BenchmarkGated": {NsPerOp: 1000, AllocsPerOp: 16}, "BenchmarkInfo": info},
			fail: []string{"BenchmarkGated: allocs/op"}},
		{name: "informational row never fails", live: map[string]metrics{
			"BenchmarkGated": {NsPerOp: 1000, AllocsPerOp: 10}, "BenchmarkInfo": {NsPerOp: 600, AllocsPerOp: 1e6}}},
		{name: "missing informational row", live: map[string]metrics{
			"BenchmarkGated": {NsPerOp: 1000, AllocsPerOp: 10}}, noChecks: true},
		{name: "missing gated row", live: map[string]metrics{"BenchmarkInfo": info},
			fail: []string{"BenchmarkGated: gated row missing", "check gated over info: BenchmarkGated or BenchmarkInfo missing"}},
		{name: "violated check", live: map[string]metrics{
			"BenchmarkGated": {NsPerOp: 1000, AllocsPerOp: 10}, "BenchmarkInfo": {NsPerOp: 700, AllocsPerOp: 4}},
			fail: []string{"check gated over info: 1.43x below 1.5x"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testManifest()
			if tc.noChecks {
				m.Checks = nil
			}
			var out strings.Builder
			got := compare(&out, m, tc.live)
			if len(got) != len(tc.fail) {
				t.Fatalf("failures %q, want %d matching %q\n%s", got, len(tc.fail), tc.fail, out.String())
			}
			for i, want := range tc.fail {
				if !strings.Contains(got[i], want) {
					t.Errorf("failure %q does not mention %q", got[i], want)
				}
			}
		})
	}
}

func TestValidate(t *testing.T) {
	if err := testManifest().validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	for name, spoil := range map[string]func(*manifest){
		"schema":        func(m *manifest) { m.Schema = "netdecomp-bench/v1" },
		"no rows":       func(m *manifest) { m.Rows = nil },
		"no layer":      func(m *manifest) { m.Rows[0].Layer = "" },
		"no benchtime":  func(m *manifest) { m.Rows[0].Benchtime = "" },
		"no recorded":   func(m *manifest) { m.Rows[1].Recorded.CPU = "" },
		"no numbers":    func(m *manifest) { m.Rows[1].NsPerOp = 0 },
		"negative gate": func(m *manifest) { m.Rows[0].Gate.Allocs = -0.1 },
		"duplicate":     func(m *manifest) { m.Rows[1].Name = m.Rows[0].Name },
		"check row":     func(m *manifest) { m.Checks[0].Fast = "BenchmarkNowhere" },
		"check ratio":   func(m *manifest) { m.Checks[0].MinRatio = 0 },
	} {
		m := testManifest()
		spoil(m)
		if m.validate() == nil {
			t.Errorf("%s: spoiled manifest accepted", name)
		}
	}
}

// oldGate is one gate CI applied before the manifest: a recorded baseline
// from one BENCH_*.json file and the thresholds its step passed.
type oldGate struct {
	file             string
	ns, nsThr        float64
	allocs, allocThr float64
}

func (g oldGate) fails(live metrics) bool {
	return live.NsPerOp > g.ns*(1+g.nsThr) || live.AllocsPerOp > g.allocs*(1+g.allocThr)
}

// parentGates are every gate of the nine-file bench job, by row. The two
// hot-path rows were gated twice, by the hot-path step and by the
// telemetry-off step.
var parentGates = map[string][]oldGate{
	"BenchmarkHotpathSim65536": {
		{"BENCH_hotpath.json", 233626579, 0.15, 4337, 0.25},
		{"BENCH_obs.json", 252703053, 0.05, 4340, 0.002},
	},
	"BenchmarkHotpathDist65536": {
		{"BENCH_hotpath.json", 707006852, 0.15, 4164, 0.25},
		{"BENCH_obs.json", 829691114, 0.05, 4167, 0.002},
	},
	"BenchmarkHotpathMPXDist65536":              {{"BENCH_hotpath.json", 193833912, 0.15, 81, 0.25}},
	"BenchmarkHotpathGridSim65536":              {{"BENCH_hotpath.json", 56274112, 0.15, 52578, 0.25}},
	"BenchmarkHotpathPowerLawDist65536":         {{"BENCH_hotpath.json", 546172164, 0.15, 1810, 0.25}},
	"BenchmarkSessionCacheHit":                  {{"BENCH_session.json", 23473, 0.5, 5, 0.25}},
	"BenchmarkServeWarmHit":                     {{"BENCH_serve.json", 1366890, 0.5, 589, 0.25}},
	"BenchmarkResilienceWarmHitUnderSaturation": {{"BENCH_resilience.json", 1246517, 0.5, 589, 0.25}},
	"BenchmarkPipelineWarmRerun":                {{"BENCH_pipeline.json", 54000000, 0.15, 20386, 0.25}},
	"BenchmarkDynRepair/rate=0.1pct":            {{"BENCH_dynamic.json", 15704772, 0.5, 3487, 0.35}},
	"BenchmarkDynRecompute/rate=0.1pct":         {{"BENCH_dynamic.json", 55689345, 0.5, 52363, 0.35}},
}

// parentInformational are the rows the nine-file job only reported.
var parentInformational = []string{
	"BenchmarkObsHotpathSim65536", "BenchmarkObsHotpathDist65536",
	"BenchmarkSessionColdMiss", "BenchmarkServeColdMiss", "BenchmarkPipelineCold",
	"BenchmarkDynRepair/rate=1pct", "BenchmarkDynRepair/rate=5pct",
	"BenchmarkDynRecompute/rate=1pct", "BenchmarkDynRecompute/rate=5pct",
	"BenchmarkGraphBuild4096", "BenchmarkGraphBFS4096", "BenchmarkGraphEdges4096",
	"BenchmarkElkinNeimanE2E2048",
}

// boundaryValues are live values on, just past and around every bound of
// gates.
func boundaryValues(gates []oldGate, rec func(oldGate) (float64, float64)) []float64 {
	vals := []float64{0, math.MaxFloat64}
	for _, g := range gates {
		v, thr := rec(g)
		b := v * (1 + thr)
		vals = append(vals, v, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, 0), b*0.999, b*1.001)
	}
	return vals
}

// TestManifestReproducesParentGates: for every row the nine-file job
// gated, the manifest row fails exactly when one of its old gates would
// have failed — so a row gated twice fails when either gate fails — and
// every row the old job only reported is still informational.
func TestManifestReproducesParentGates(t *testing.T) {
	m, err := loadManifest("../../BENCH_gates.json")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]row{}
	for _, r := range m.Rows {
		byName[r.Name] = r
	}
	for name, gates := range parentGates {
		r, ok := byName[name]
		if !ok || r.Gate == nil {
			t.Errorf("%s: gated before, not gated in the manifest", name)
			continue
		}
		one := &manifest{Schema: schema, Rows: []row{r}}
		nsVals := boundaryValues(gates, func(g oldGate) (float64, float64) { return g.ns, g.nsThr })
		allocVals := boundaryValues(gates, func(g oldGate) (float64, float64) { return g.allocs, g.allocThr })
		for _, ns := range nsVals {
			for _, allocs := range allocVals {
				live := metrics{NsPerOp: ns, AllocsPerOp: allocs}
				var failedIn []string
				for _, g := range gates {
					if g.fails(live) {
						failedIn = append(failedIn, g.file)
					}
				}
				if got := len(compare(io.Discard, one, map[string]metrics{name: live})) > 0; got != (len(failedIn) > 0) {
					t.Errorf("%s at %.6g ns/op, %.6g allocs/op: manifest fails=%v, old gates failing: %v", name, ns, allocs, got, failedIn)
				}
			}
		}
	}
	for _, name := range parentInformational {
		if r, ok := byName[name]; !ok || r.Gate != nil {
			t.Errorf("%s: informational before, gated or absent in the manifest", name)
		}
	}
}
