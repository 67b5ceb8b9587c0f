// Command benchdiff runs the Go micro-benchmarks listed in the bench
// manifest, BENCH_gates.json (schema netdecomp-bench/v2), and compares
// every row's live ns/op, B/op and allocs/op with its recorded numbers.
// CI's bench job is this one command.
//
// Usage, from the module root:
//
//	go run ./cmd/benchdiff [-manifest BENCH_gates.json]
//
// Rows are grouped by (package, benchtime) and each group runs once as
//
//	go test -run '^$' -bench '<the group's names>' -benchmem -benchtime <benchtime> <package>
//
// with the -bench pattern built from the manifest's names, so the
// benchmarks that run cannot drift from the rows that gate them. The raw
// output is streamed to stdout and kept in bench-raw.txt; the delta table
// is printed and kept in bench-delta.txt.
//
// A row's gate is null (an informational row: reported, never failing) or
// {ns, allocs} thresholds, and the bound of a gated metric is the recorded
// value × (1 + threshold). benchdiff exits 1 when a gated row exceeds a
// bound, when a gated row is missing from the output, when a manifest
// check fails (the live ns/op of its slow row over its fast row is below
// min_ratio) or when a go test run fails; every failure is named on
// stderr. It exits 2 when the manifest cannot be read.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"text/tabwriter"
)

const (
	schema    = "netdecomp-bench/v2"
	rawFile   = "bench-raw.txt"
	deltaFile = "bench-delta.txt"
)

// metrics is one benchmark measurement.
type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// gate holds a gated row's thresholds, as fractions of the recorded value.
type gate struct {
	NS     float64 `json:"ns"`
	Allocs float64 `json:"allocs"`
}

// row is one benchmark of the manifest.
type row struct {
	Package   string `json:"package"`
	Name      string `json:"name"`
	Benchtime string `json:"benchtime"`
	Layer     string `json:"layer"`
	Gate      *gate  `json:"gate"`
	metrics
	Recorded struct {
		Date string `json:"date"`
		CPU  string `json:"cpu"`
	} `json:"recorded"`
}

// check requires the live ns/op of row Slow to be at least MinRatio times
// that of row Fast.
type check struct {
	Name     string  `json:"name"`
	Fast     string  `json:"fast"`
	Slow     string  `json:"slow"`
	MinRatio float64 `json:"min_ratio"`
}

type manifest struct {
	Schema string  `json:"schema"`
	Checks []check `json:"checks"`
	Rows   []row   `json:"rows"`
}

func loadManifest(path string) (*manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err == nil {
		err = m.validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// validate rejects a manifest benchdiff could not run or judge faithfully.
func (m *manifest) validate() error {
	if m.Schema != schema || len(m.Rows) == 0 {
		return fmt.Errorf("want schema %q and at least one row", schema)
	}
	seen := map[string]bool{}
	for _, r := range m.Rows {
		if r.Name == "" || seen[r.Name] || r.Package == "" || r.Benchtime == "" || r.Layer == "" ||
			r.Recorded.Date == "" || r.Recorded.CPU == "" || r.NsPerOp <= 0 || r.AllocsPerOp < 0 ||
			(r.Gate != nil && (r.Gate.NS < 0 || r.Gate.Allocs < 0)) {
			return fmt.Errorf("row %q: want a unique name, package, benchtime, layer, recorded date, cpu and numbers, and thresholds >= 0", r.Name)
		}
		seen[r.Name] = true
	}
	for _, c := range m.Checks {
		if !seen[c.Fast] || !seen[c.Slow] || c.MinRatio <= 0 {
			return fmt.Errorf("check %q: want two listed rows and min_ratio > 0", c.Name)
		}
	}
	return nil
}

// group is one go test invocation: the rows sharing a package and
// benchtime, in manifest order.
type group struct {
	pkg, benchtime string
	names          []string
}

func groups(rows []row) []group {
	var out []group
	at := map[[2]string]int{}
	for _, r := range rows {
		k := [2]string{r.Package, r.Benchtime}
		i, ok := at[k]
		if !ok {
			i = len(out)
			at[k] = i
			out = append(out, group{pkg: r.Package, benchtime: r.Benchtime})
		}
		out[i].names = append(out[i].names, r.Name)
	}
	return out
}

// benchPattern is the -bench argument selecting exactly names. go test
// splits the pattern at unbracketed '|' into alternatives and each
// alternative at '/' into one expression per sub-benchmark level, so a
// sub-benchmark is matched level by level: ^BenchmarkA$/^x=1$.
func benchPattern(names []string) string {
	alts := make([]string, len(names))
	for i, name := range names {
		levels := strings.Split(name, "/")
		for j, l := range levels {
			levels[j] = "^" + regexp.QuoteMeta(l) + "$"
		}
		alts[i] = strings.Join(levels, "/")
	}
	return strings.Join(alts, "|")
}

// parseBench extracts "BenchmarkName-N  iters  X ns/op [Y B/op  Z allocs/op]"
// lines from go test output, keyed by name without the -N CPU suffix.
func parseBench(r io.Reader) (map[string]metrics, error) {
	out := map[string]metrics{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m metrics
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = val
			case "B/op":
				m.BytesPerOp = val
			case "allocs/op":
				m.AllocsPerOp = val
			}
		}
		if m.NsPerOp > 0 {
			out[name] = m
		}
	}
	return out, sc.Err()
}

func delta(rec, live float64) string {
	if rec == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(live-rec)/rec)
}

// compare writes the delta table for live against m and returns one
// message per failure: a gated metric over its bound, a gated row
// missing, or a check below its ratio.
func compare(w io.Writer, m *manifest, live map[string]metrics) []string {
	var failures []string
	fail := func(format string, args ...any) string {
		failures = append(failures, fmt.Sprintf(format, args...))
		return "FAIL"
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tbenchmark\tgate\trec ns/op\tns/op\tdelta\trec B/op\tB/op\tdelta\trec allocs\tallocs\tdelta\tverdict")
	for _, r := range m.Rows {
		cur, ok := live[r.Name]
		gateCol, verdict := "info", "info"
		if !ok {
			verdict = "missing"
		}
		if r.Gate != nil {
			gateCol, verdict = fmt.Sprintf("%g/%g", r.Gate.NS, r.Gate.Allocs), "ok"
			if !ok {
				verdict = fail("%s: gated row missing from the output", r.Name)
			}
			for _, g := range []struct {
				unit           string
				rec, live, thr float64
			}{{"ns/op", r.NsPerOp, cur.NsPerOp, r.Gate.NS}, {"allocs/op", r.AllocsPerOp, cur.AllocsPerOp, r.Gate.Allocs}} {
				if bound := g.rec * (1 + g.thr); ok && g.live > bound {
					verdict = fail("%s: %s %.0f over bound %.1f (%s against %.0f recorded, threshold %g)",
						r.Name, g.unit, g.live, bound, delta(g.rec, g.live), g.rec, g.thr)
				}
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%.0f\t%s\t%.0f\t%.0f\t%s\t%.0f\t%.0f\t%s\t%s\n", r.Layer, r.Name, gateCol,
			r.NsPerOp, cur.NsPerOp, delta(r.NsPerOp, cur.NsPerOp),
			r.BytesPerOp, cur.BytesPerOp, delta(r.BytesPerOp, cur.BytesPerOp),
			r.AllocsPerOp, cur.AllocsPerOp, delta(r.AllocsPerOp, cur.AllocsPerOp), verdict)
	}
	tw.Flush()
	for _, c := range m.Checks {
		fast, okF := live[c.Fast]
		slow, okS := live[c.Slow]
		ratio, verdict := slow.NsPerOp/fast.NsPerOp, "ok"
		switch {
		case !okF || !okS:
			verdict = fail("check %s: %s or %s missing from the output", c.Name, c.Slow, c.Fast)
		case ratio < c.MinRatio:
			verdict = fail("check %s: %.2fx below %gx", c.Name, ratio, c.MinRatio)
		}
		fmt.Fprintf(w, "check %s: %s / %s = %.0f / %.0f ns/op = %.2fx (min %gx): %s\n",
			c.Name, c.Slow, c.Fast, slow.NsPerOp, fast.NsPerOp, ratio, c.MinRatio, verdict)
	}
	return failures
}

func run(manifestPath string, stdout, stderr io.Writer) int {
	m, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	var raw, table bytes.Buffer
	out := io.MultiWriter(stdout, &raw)
	var failures []string
	for _, g := range groups(m.Rows) {
		pattern := benchPattern(g.names)
		fmt.Fprintf(out, "$ go test -run '^$' -bench '%s' -benchmem -benchtime %s %s\n", pattern, g.benchtime, g.pkg)
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern, "-benchmem", "-benchtime", g.benchtime, g.pkg)
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Run(); err != nil {
			failures = append(failures, fmt.Sprintf("go test %s (benchtime %s): %v", g.pkg, g.benchtime, err))
		}
	}
	live, err := parseBench(bytes.NewReader(raw.Bytes()))
	if err != nil {
		failures = append(failures, fmt.Sprintf("reading go test output: %v", err))
	}
	failures = append(failures, compare(io.MultiWriter(stdout, &table), m, live)...)
	for _, f := range failures {
		fmt.Fprintln(&table, "FAIL:", f)
		fmt.Fprintln(stderr, "benchdiff: FAIL:", f)
	}
	for name, data := range map[string][]byte{rawFile: raw.Bytes(), deltaFile: table.Bytes()} {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

func main() {
	manifestPath := flag.String("manifest", "BENCH_gates.json", "bench manifest to run and compare against")
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*manifestPath, os.Stdout, os.Stderr))
}
