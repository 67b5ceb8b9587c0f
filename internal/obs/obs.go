// Package obs is the repository's unified telemetry core: atomic counters
// and gauges, log-bucketed histograms with quantile summaries, and
// lightweight nesting spans that export to Chrome trace-event JSON — all
// dependency-free (standard library only) and safe for concurrent use.
//
// The package exists because the paper's headline claims are round and
// message complexity bounds: comparing algorithms, seeds and schedulers is
// only meaningful when every layer reports through one instrument. The
// layering is
//
//	Registry   — named Counters, Gauges and Histograms; Snapshot(),
//	             Prometheus-text and expvar exposition
//	Tracer     — append-only event log; Spans nest
//	             (session job → plan run → phase → round) and export to
//	             chrome://tracing / Perfetto
//	Recorder   — the {Registry, Tracer} bundle a run reports into,
//	             threaded engine → core → decomp.Plan → session
//
// Disabled-path contract: every method of every type in this package is
// nil-safe. A nil *Recorder, *Registry, *Tracer, *Span, *Counter, *Gauge,
// *Histogram or *RoundRecorder accepts every call as a no-op, so
// instrumented code needs no conditionals — and the hot paths (the engine
// commit loop, the phase runner's round loop) pay exactly one pointer
// test per round when telemetry is off. The telemetry-off hot-path rows of
// BENCH_gates.json hold that contract: CI fails them when allocations per
// op grow by more than 0.2%.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add adds d to the counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d to the gauge.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// KV is one integer-valued span or event annotation. Trace args are
// integers by design: everything the layers report (round indices,
// message counts, frontier sizes, keys) is integral, and fixed-size args
// keep event emission allocation-free.
type KV struct {
	K string
	V int64
}
