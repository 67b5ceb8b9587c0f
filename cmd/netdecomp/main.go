package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtpprof "runtime/pprof"
	"sort"
	"time"

	"netdecomp/internal/core"
	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/graphio"
	"netdecomp/internal/obs"
	"netdecomp/internal/serve"
	"netdecomp/internal/session"
	"netdecomp/internal/stats"
)

// Command netdecomp runs network decompositions on generated graphs,
// verifies them, and prints the measured parameters next to the theorem
// bounds. Any algorithm in the unified registry can drive it; the options
// are compiled once into a decomp.Plan, and the batch modes (-repeat,
// -sweep-seeds, -sweep) execute the plan through a serving session whose
// cache and dedup statistics are reported.
//
// Examples:
//
//	netdecomp -family gnp -n 4096 -k 8
//	netdecomp -family grid -n 1024 -variant t3 -lambda 3
//	netdecomp -family gnp -n 1024 -distributed
//	netdecomp -family gnp -n 1024 -algo linial-saks -timeout 30s
//	netdecomp -family grid -n 900 -algo mpx/dist -beta 0.4
//	netdecomp -family gnp -n 1024 -repeat 5            # cache hits
//	netdecomp -family gnp -n 1024 -sweep-seeds 8       # seed sweep, one plan
//	netdecomp -n 512 -sweep                            # every gen family
//	netdecomp -family gnp -n 1024 -pipeline dag.json -repeat 2  # typed stage DAG
//
// Observability: every run collects its telemetry (round counters,
// frontier/latency histograms, session cache statistics) in a unified
// registry. -metrics-addr serves it over HTTP as Prometheus text
// (/metrics), expvar JSON (/debug/vars) and live pprof endpoints
// (/debug/pprof/); -trace exports the run's span hierarchy — session job
// → plan run → phase → per-round instants — as Chrome trace-event JSON
// for chrome://tracing or Perfetto; -profile-cpu / -profile-mem write
// runtime/pprof profiles of the process itself.
//
//	netdecomp -family gnp -n 65536 -metrics-addr :8080 -linger 1m
//	netdecomp -family grid -n 4096 -trace run.json
//	netdecomp -family gnp -n 65536 -profile-cpu cpu.out -profile-mem heap.out
func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netdecomp:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("netdecomp", flag.ContinueOnError)
	algo := fs.String("algo", "elkin-neiman", "registry algorithm (elkin-neiman, linial-saks, mpx, mpx/dist, ball-carving, ...)")
	family := fs.String("family", "gnp", "graph family (see gen.Families: gnp, grid, torus, tree, path, cycle, hypercube, regular, ringofcliques, caterpillar, smallworld, powerlaw)")
	input := fs.String("input", "", "read the graph from an edge-list file instead of generating one")
	n := fs.Int("n", 1024, "approximate number of vertices")
	k := fs.Int("k", 0, "radius parameter (0 = algorithm default)")
	lambda := fs.Int("lambda", 2, "color budget for -variant t3")
	c := fs.Float64("c", 8, "confidence parameter (failure probability <= 3/c)")
	beta := fs.Float64("beta", 0, "MPX exponential rate (0 = default 0.3)")
	variantName := fs.String("variant", "t1", "theorem variant for elkin-neiman: t1, t2 or t3")
	seed := fs.Uint64("seed", 1, "random seed")
	mode := fs.String("mode", "cap", "radius mode: cap (paper) or exact")
	force := fs.Bool("force", false, "keep carving past the budget until complete")
	distributed := fs.Bool("distributed", false, "execute on the message-passing engine")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	repeat := fs.Int("repeat", 1, "submit the identical job this many times through a session (exercises the result cache)")
	pipelineFile := fs.String("pipeline", "", "execute a JSON pipeline document (the POST /v1/pipeline spec) on the graph instead of a single plan; -repeat re-runs it against the warm session")
	sweepSeeds := fs.Int("sweep-seeds", 0, "run seeds seed..seed+N-1 through a session as one streamed batch")
	sweep := fs.Bool("sweep", false, "run the algorithm on every graph family (no -input), one session")
	metricsAddr := fs.String("metrics-addr", "", "serve the telemetry registry on this address: /metrics (Prometheus text), /debug/vars (expvar), /debug/pprof (live profiling)")
	linger := fs.Duration("linger", 0, "with -metrics-addr: keep serving this long after the run completes (so scrapers see the final state)")
	tracePath := fs.String("trace", "", "write the run's span hierarchy as Chrome trace-event JSON to this file")
	cpuProfile := fs.String("profile-cpu", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("profile-mem", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// One registry for the whole invocation; the tracer only exists when a
	// trace export was requested (spans are retained in memory).
	reg := obs.NewRegistry()
	var trc *obs.Tracer
	if *tracePath != "" {
		trc = obs.NewTracer()
	}
	rec := obs.New(reg, trc)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := rtpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			rtpprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "netdecomp: heap profile:", err)
			}
		}()
	}
	if *metricsAddr != "" {
		// The observability mux is shared with cmd/netdecompd (see
		// internal/serve/debug.go) so the two binaries expose identical
		// /metrics, /debug/vars and /debug/pprof surfaces.
		srv, ln, err := serve.ListenDebug(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		fmt.Fprintf(w, "metrics  : serving http://%s/metrics /debug/vars /debug/pprof\n", ln.Addr())
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(w, "metrics  : lingering %v on http://%s\n", *linger, ln.Addr())
				time.Sleep(*linger)
			}
			srv.Close()
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The Elkin–Neiman variants live under per-theorem registry names.
	name := *algo
	variant, err := core.ParseVariant(*variantName)
	if err != nil {
		return err
	}
	if name == "elkin-neiman" {
		name = "elkin-neiman/" + variant.String()
	}

	opts := []decomp.Option{
		decomp.WithK(*k),
		decomp.WithLambda(*lambda),
		decomp.WithC(*c),
		decomp.WithBeta(*beta),
		decomp.WithSeed(*seed),
	}
	switch *mode {
	case "cap":
	case "exact":
		opts = append(opts, decomp.WithExactRadius())
	default:
		return fmt.Errorf("unknown -mode %q (want cap or exact)", *mode)
	}
	if *force {
		opts = append(opts, decomp.WithForceComplete())
	}
	if *distributed {
		opts = append(opts, decomp.WithEngine())
	}
	pl, err := decomp.Compile(name, opts...)
	if err != nil {
		return err
	}

	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}
	if *sweepSeeds < 0 {
		return fmt.Errorf("-sweep-seeds must be non-negative, got %d", *sweepSeeds)
	}
	runErr := func() error {
		if *sweep {
			if *input != "" {
				return fmt.Errorf("-sweep generates its own graphs; drop -input")
			}
			return deadline(runFamilySweep(ctx, w, pl, rec, *n, *seed, *sweepSeeds), *timeout)
		}
		g, source, err := loadGraph(*input, *family, *n, *seed)
		if err != nil {
			return err
		}
		if *pipelineFile != "" {
			return deadline(runPipelineFile(ctx, w, rec, *pipelineFile, g, source, *repeat), *timeout)
		}
		if *sweepSeeds > 0 {
			return deadline(runSeedSweep(ctx, w, pl, rec, g, source, *seed, *sweepSeeds, *repeat), *timeout)
		}
		return deadline(runOnce(ctx, w, pl, rec, g, source, *algo, variant, *repeat), *timeout)
	}()

	if *tracePath != "" {
		if err := writeTraceFile(*tracePath, trc); err != nil {
			if runErr == nil {
				runErr = err
			}
		} else {
			fmt.Fprintf(w, "trace    : wrote %s (load in chrome://tracing or Perfetto)\n", *tracePath)
		}
	}
	return runErr
}

// writeTraceFile exports the tracer's event buffer as Chrome trace JSON.
func writeTraceFile(path string, trc *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trc.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeHeapProfile snapshots the heap after a final GC — the
// -profile-mem exit hook.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := rtpprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// deadline converts a context deadline error into the actionable message
// the exit path prints, preserving other errors unchanged.
func deadline(err error, timeout time.Duration) error {
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("timed out after %v (raise -timeout or shrink the input): %w", timeout, err)
	}
	return err
}

// loadGraph reads -input or generates the named family.
func loadGraph(input, family string, n int, seed uint64) (*graph.Graph, string, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, "", err
		}
		g, err := graphio.Read(f)
		closeErr := f.Close()
		if err != nil {
			return nil, "", fmt.Errorf("reading %s: %w", input, err)
		}
		if closeErr != nil {
			return nil, "", closeErr
		}
		return g, input, nil
	}
	fam, err := gen.ParseFamily(family)
	if err != nil {
		return nil, "", err
	}
	g, err := gen.Build(fam, n, seed)
	if err != nil {
		return nil, "", err
	}
	return g, fam.String(), nil
}

// runOnce is the classic single-job mode, optionally repeated through a
// session to demonstrate the result cache.
func runOnce(ctx context.Context, w io.Writer, pl *decomp.Plan, rec *obs.Recorder, g *graph.Graph, source, algo string, variant core.Variant, repeat int) error {
	var p *decomp.Partition
	var st session.Stats
	if repeat > 1 {
		s := session.New(session.WithRecorder(rec))
		defer s.Close()
		for i := 0; i < repeat; i++ {
			var err error
			p, err = s.Run(ctx, pl, g)
			if err != nil {
				return err
			}
		}
		st = s.Stats()
	} else {
		var err error
		p, err = pl.WithRecorder(rec).Run(ctx, g)
		if err != nil {
			return err
		}
	}

	cfg := pl.Config()
	fmt.Fprintf(w, "graph    : %s (%s)\n", g, source)
	fmt.Fprintf(w, "options  : algo=%s k=%s c=%v seed=%d plankey=%016x\n",
		pl.Name(), orAuto(cfg.K), cfg.C, cfg.Seed, pl.PlanKey())
	fmt.Fprintf(w, "result   : %s\n", p)
	fmt.Fprintf(w, "cost     : rounds=%d messages=%d words=%d maxMsgWords=%d\n",
		p.Metrics.Rounds, p.Metrics.Messages, p.Metrics.Words, p.Metrics.MaxMessageWords)
	printSizes(w, p)
	if repeat > 1 {
		fmt.Fprintf(w, "session  : repeat=%d hits=%d misses=%d dedups=%d cached=%d\n",
			repeat, st.Hits, st.Misses, st.Dedups, st.Cached)
	}

	rep := p.Verify(g)
	fmt.Fprintf(w, "verify   : valid=%v strongDiam=%d weakDiam=%d colors=%d coverage=%.3f\n",
		rep.Valid(), rep.MaxStrongDiameter, rep.MaxWeakDiameter, rep.Colors, rep.Coverage)

	// The theorem bounds apply to the Elkin–Neiman regimes.
	if algo == "elkin-neiman" {
		coreOpts := core.Options{Variant: variant, K: cfg.K, Lambda: cfg.Lambda, C: cfg.C, Seed: cfg.Seed}
		if dBound, err := core.TheoremDiameterBound(g.N(), coreOpts); err == nil {
			fmt.Fprintf(w, "bounds   : diameter<=%d", dBound)
			if cBound, err := core.TheoremColorBound(g.N(), coreOpts); err == nil {
				fmt.Fprintf(w, " colors<=%.1f", cBound)
			}
			if rBound, err := core.TheoremRoundBound(g.N(), coreOpts); err == nil {
				fmt.Fprintf(w, " rounds<=%.0f", rBound)
			}
			fmt.Fprintln(w)
		}
	}
	if !rep.Valid() {
		return rep.Err()
	}
	return nil
}

// runSeedSweep submits seeds base..base+count-1 (each repeated `repeat`
// times, so dedup and cache absorb the duplicates) as one streamed batch.
func runSeedSweep(ctx context.Context, w io.Writer, pl *decomp.Plan, rec *obs.Recorder, g *graph.Graph, source string, base uint64, count, repeat int) error {
	s := session.New(session.WithRecorder(rec))
	defer s.Close()
	reqs := make([]session.Request, 0, count*repeat)
	for r := 0; r < repeat; r++ {
		for i := 0; i < count; i++ {
			reqs = append(reqs, session.Request{Plan: pl.WithSeed(base + uint64(i)), Graph: g})
		}
	}
	type row struct {
		res session.Result
		p   *decomp.Partition
	}
	rows := make([]row, 0, len(reqs))
	for res := range s.SubmitAll(ctx, reqs) {
		if res.Err != nil {
			return res.Err
		}
		rows = append(rows, row{res: res, p: res.Partition})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].res.Index < rows[j].res.Index })
	fmt.Fprintf(w, "graph    : %s (%s)\n", g, source)
	fmt.Fprintf(w, "plan     : algo=%s plankey=%016x seeds=%d..%d repeat=%d\n",
		pl.Name(), pl.PlanKey(), base, base+uint64(count)-1, repeat)
	for _, r := range rows[:count] { // one line per distinct seed
		rep := r.p.Verify(g)
		fmt.Fprintf(w, "seed %-4d: clusters=%d colors=%d rounds=%d valid=%v\n",
			base+uint64(r.res.Index), len(r.p.Clusters), r.p.Colors, r.p.Metrics.Rounds, rep.Valid())
		if !rep.Valid() {
			return rep.Err()
		}
	}
	st := s.Stats()
	fmt.Fprintf(w, "session  : jobs=%d hits=%d misses=%d dedups=%d cached=%d\n",
		len(reqs), st.Hits, st.Misses, st.Dedups, st.Cached)
	return nil
}

// runFamilySweep runs the plan over every registered graph family — the
// gen.Families table is enumerated the same way the decomp registry is.
func runFamilySweep(ctx context.Context, w io.Writer, pl *decomp.Plan, rec *obs.Recorder, n int, seed uint64, seeds int) error {
	if seeds < 1 {
		seeds = 1
	}
	s := session.New(session.WithRecorder(rec))
	defer s.Close()
	fmt.Fprintf(w, "plan     : algo=%s plankey=%016x n≈%d seeds=%d\n", pl.Name(), pl.PlanKey(), n, seeds)
	for _, fam := range gen.Families() {
		g, err := gen.Build(fam, n, seed)
		if err != nil {
			return err
		}
		for i := 0; i < seeds; i++ {
			p, err := s.Run(ctx, pl.WithSeed(seed+uint64(i)), g)
			if err != nil {
				return fmt.Errorf("%s: %w", fam, err)
			}
			rep := p.Verify(g)
			fmt.Fprintf(w, "%-13s: n=%d m=%d seed=%d clusters=%d colors=%d rounds=%d valid=%v\n",
				fam, g.N(), g.M(), seed+uint64(i), len(p.Clusters), p.Colors, p.Metrics.Rounds, rep.Valid())
			if !rep.Valid() {
				return fmt.Errorf("%s: %w", fam, rep.Err())
			}
		}
	}
	st := s.Stats()
	fmt.Fprintf(w, "session  : hits=%d misses=%d dedups=%d cached=%d\n",
		st.Hits, st.Misses, st.Dedups, st.Cached)
	return nil
}

// orAuto renders a zero-valued parameter as its "algorithm default" form.
func orAuto(v int) string {
	if v == 0 {
		return "auto"
	}
	return fmt.Sprintf("%d", v)
}

// printSizes summarizes the cluster-size distribution.
func printSizes(w io.Writer, p *decomp.Partition) {
	if len(p.Clusters) == 0 {
		fmt.Fprintf(w, "clusters : 0 total\n")
		return
	}
	sizes := make([]float64, 0, len(p.Clusters))
	singletons := 0
	for i := range p.Clusters {
		sz := len(p.Clusters[i].Members)
		sizes = append(sizes, float64(sz))
		if sz == 1 {
			singletons++
		}
	}
	s := stats.Summarize(sizes)
	fmt.Fprintf(w, "clusters : %d total, %d singletons, mean %.1f, median %.0f, max %.0f\n",
		len(sizes), singletons, s.Mean, s.Median, s.Max)
}
