// Command perfbench is the repository's benchmark: three seeded workloads,
// each driving a different stack of netdecomp layers through exported calls
// only.
//
//	serve-warm      serve → session read path (warm hits over loopback HTTP)
//	decompose-cold  session write path → decomp → core | dist
//	repair-torus    dyn → core repair → graph
//
// One run measures one workload for --seconds and checks every output; a
// wrong output exits non-zero without a result. With --trace 0 the last
// stdout line is a JSON object carrying the end-to-end metrics; with
// --trace 1 the run times every layer call from this package's side,
// records spans with obs.Tracer, writes them as Chrome trace JSON under
// --out, and reports the per-layer metrics instead.
//
// Build and run from the repository root with
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netdecomp/internal/obs"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median and the last set-up is the one measured.
const setupRepeats = 5

// config is one run's parameters.
type config struct {
	seed    uint64
	measure time.Duration
	tracer  *obs.Tracer // nil when untraced: every span call is then a no-op
}

func (c config) traced() bool { return c.tracer != nil }

// workload runs one benchmark workload and reports its metrics.
type workload func(cfg config) (*result, error)

var workloads = map[string]workload{
	"serve-warm":     serveWarm,
	"decompose-cold": decomposeCold,
	"repair-torus":   repairTorus,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-warm, decompose-cold or repair-torus")
	seed := fs.Uint64("seed", 1, "workload seed; every input is a fixed function of it")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes its Chrome trace into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, measure: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		cfg.tracer = obs.NewTracer()
	}
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d measured %.3gs traced %v (go %s, GOMAXPROCS %d, nproc %d)\n",
		*name, *seed, *seconds, cfg.traced(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if cfg.traced() {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := writeTrace(cfg.tracer, path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if err := res.print(stdout, cfg.traced()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeTrace exports the run's spans as Chrome trace JSON.
func writeTrace(t *obs.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the last stdout line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and, last, the JSON result line
// with every metric of the run's mode. A metric the workload failed to
// set is an error: a result line is always complete.
func (r *result) print(w io.Writer, traced bool) error {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	for _, line := range r.notes {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "fail_ratio %.6g (%d failed of %d attempted)\n", r.failRatio(), r.failed, r.attempted)
	line := resultLine{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
