// Command netdecompd is the network-decomposition serving daemon: the
// internal/serve HTTP/JSON API over a persistent session. Clients register
// graphs (generator specs or edge-list uploads), compile plans, and submit
// decompose requests that ride the session cache and singleflight;
// per-round statistics stream over SSE, telemetry is live on /metrics, and
// with -store the completed-partition cache (plus the graph/plan
// registries) survives restarts behind an integrity-hashed snapshot.
//
// Examples:
//
//	netdecompd -addr :8080
//	netdecompd -addr :8080 -store /var/lib/netdecomp/netdecomp.snap
//	netdecompd -addr :8080 -store nd.snap -flush-interval 30s -workers 8
//
//	curl -s localhost:8080/v1/graphs -H 'Content-Type: application/json' \
//	     -d '{"family":"gnp","n":4096,"seed":1}'
//	curl -s localhost:8080/v1/plans -H 'Content-Type: application/json' \
//	     -d '{"algorithm":"elkin-neiman","forceComplete":true}'
//	curl -s localhost:8080/v1/decompose -d '{"graph":"<fp>","plan":"<key>"}'
//
// Pipelines compose multiple stages into one request: a typed DAG of
// decompose plans and derived-structure builders (recolor, MIS, coloring,
// matching, spanner, cover) executes level-parallel through the session,
// so a re-post after one upstream edit recomputes only the affected
// stages. The stream variant emits per-stage start/done events over SSE:
//
//	curl -s localhost:8080/v1/pipeline -d '{"graph":"<fp>","pipeline":{
//	  "stages":[{"id":"dec","decompose":{"algorithm":"elkin-neiman","forceComplete":true}},
//	            {"id":"re","recolor":{}},{"id":"mis","mis":{}},{"id":"sp","spanner":{}}],
//	  "edges":[{"from":"dec","to":"re"},{"from":"re","to":"mis"},{"from":"dec","to":"sp"}]}}'
//	curl -sN localhost:8080/v1/pipeline/stream -d @pipeline.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"netdecomp/internal/resilience"
	"netdecomp/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netdecompd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	// Handler goroutines log through opts.Logf while the server loop and
	// the chaos harness write progress to the same stream.
	w = &lockedWriter{w: w}
	fs := flag.NewFlagSet("netdecompd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address for the API (and /metrics, /debug)")
	store := fs.String("store", "", "persistent result store path (empty = in-memory only)")
	flushInterval := fs.Duration("flush-interval", time.Minute, "periodic snapshot cadence with -store (0 = flush only on shutdown and /v1/store/flush)")
	workers := fs.Int("workers", 0, "session worker pool size (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 0, "completed-result LRU capacity (0 = session default)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget: how long in-flight requests may finish after SIGTERM")
	defaultDeadline := fs.Duration("default-deadline", 0, "server-side budget applied to requests that ask for none (0 = unlimited)")
	maxDeadline := fs.Duration("max-deadline", 0, "hard cap on any requested per-request budget (0 = uncapped)")
	admitDecompose := fs.Int("admit-decompose", 0, "concurrent decompose admissions (0 = unlimited)")
	admitPipeline := fs.Int("admit-pipeline", 0, "concurrent pipeline admissions (0 = unlimited)")
	admitRegister := fs.Int("admit-register", 0, "concurrent graph/plan registration admissions (0 = unlimited)")
	admitQueue := fs.Int("admit-queue", 0, "bounded FIFO wait queue depth per admission gate (0 = reject when busy)")
	shedWatermark := fs.Int("shed-watermark", 0, "heavy in-flight count past which cold-miss work is shed with 429 (0 = never)")
	chaos := fs.Bool("chaos", false, "run the deterministic chaos harness against an in-process daemon instead of serving")
	chaosDuration := fs.Duration("chaos-duration", 5*time.Second, "with -chaos: fault episode length")
	chaosSeed := fs.Uint64("chaos-seed", 42, "with -chaos: injector PRNG seed")
	chaosLatency := fs.Duration("chaos-latency", 50*time.Millisecond, "with -chaos: injected latency spike size")
	chaosLatencyRate := fs.Float64("chaos-latency-rate", 1.0, "with -chaos: fraction of executions hit by a latency spike")
	chaosErrorRate := fs.Float64("chaos-error-rate", 0.10, "with -chaos: fraction of executions failed with an injected error")
	chaosPanicRate := fs.Float64("chaos-panic-rate", 0.10, "with -chaos: fraction of executions killed by an injected panic")
	chaosFlushErrorRate := fs.Float64("chaos-flush-error-rate", 0.10, "with -chaos: fraction of snapshot writes failed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := serve.Options{
		Workers:       *workers,
		CacheSize:     *cache,
		StorePath:     *store,
		FlushInterval: *flushInterval,
		Resilience: resilience.Options{
			Decompose:     resilience.GateConfig{Slots: *admitDecompose, Queue: *admitQueue},
			Pipeline:      resilience.GateConfig{Slots: *admitPipeline, Queue: *admitQueue},
			Register:      resilience.GateConfig{Slots: *admitRegister, Queue: *admitQueue},
			ShedWatermark: *shedWatermark,
			Deadline:      resilience.DeadlinePolicy{Default: *defaultDeadline, Max: *maxDeadline},
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	}
	if *chaos {
		return runChaos(ctx, w, opts, chaosConfig{
			duration: *chaosDuration,
			drain:    *drainTimeout,
			inject: resilience.InjectorConfig{
				Seed:           *chaosSeed,
				Latency:        *chaosLatency,
				LatencyRate:    *chaosLatencyRate,
				ErrorRate:      *chaosErrorRate,
				PanicRate:      *chaosPanicRate,
				FlushErrorRate: *chaosFlushErrorRate,
			},
		})
	}
	return runServer(ctx, w, opts, *addr, *drainTimeout)
}

// lockedWriter serializes writes to w, so concurrent log lines never race
// or interleave.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// runServer boots the daemon and serves until the context is cancelled or
// a SIGINT/SIGTERM arrives. Shutdown is a graceful drain: /readyz flips
// to 503 and admissions stop immediately, in-flight requests get up to
// drainTimeout to finish (the completed-vs-abandoned split is logged),
// and the final store flush rides Close.
func runServer(ctx context.Context, w io.Writer, opts serve.Options, addr string, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := serve.New(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.Close()
		return fmt.Errorf("-addr %s: %w", addr, err)
	}
	// The bound address is printed (not just the flag) so -addr :0 works
	// for tests and the CI smoke job.
	fmt.Fprintf(w, "netdecompd: serving http://%s (API, /metrics, /debug)\n", ln.Addr())
	if opts.StorePath != "" {
		fmt.Fprintf(w, "netdecompd: result store at %s (flush every %v)\n", opts.StorePath, opts.FlushInterval)
	}

	srv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintf(w, "netdecompd: shutting down: draining for up to %v\n", drainTimeout)
		completed, abandoned := s.Drain(drainTimeout)
		fmt.Fprintf(w, "netdecompd: drained: %d in-flight completed, %d abandoned\n", completed, abandoned)
		if abandoned == 0 {
			fmt.Fprintf(w, "netdecompd: clean drain\n")
		}
		// The HTTP layer follows the application drain; its budget only
		// covers connection teardown, so keep it short.
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shCtx)
		return s.Close() // final store flush rides Close
	case err := <-errCh:
		s.Close()
		return err
	}
}
