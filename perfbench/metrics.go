package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

// metricDef names one reported metric. The tables below are the schema
// BENCHMARK.json declares; metrics_test.go keeps the two in sync.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics come from untraced runs and exist on every workload.
// Each workload has two classes of work, a and b, and every percentile is
// taken within one class:
//
//	serve-warm      a = the 4 most popular of 64 keys, b = the other 60
//	decompose-cold  a = elkin-neiman (simulation), b = elkin-neiman/dist (engine)
//	repair-torus    a = 0.1% batches, b = 1% batches
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"retained_heap_mb", "MB", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"a_p50_ms", "ms", "lower"},
	{"a_tail_ms", "ms", "lower"},
	{"b_p50_ms", "ms", "lower"},
	{"b_tail_ms", "ms", "lower"},
}

// perLayer metrics come from traced runs. A workload reports 0 for a layer
// it does not reach.
var perLayer = []metricDef{
	{"serve.handler_ms", "ms", "lower"},
	{"serve.transport_ms", "ms", "lower"},
	{"session.peek_ms", "ms", "lower"},
	{"serve.encode_ms", "ms", "lower"},
	{"serve.residual_ms", "ms", "lower"},
	{"serve.response_kb", "KB", "lower"},
	{"serve.alloc_kb_per_req", "KB", "lower"},
	{"session.hit_ratio", "1", "higher"},
	{"session.run_ms.sim", "ms", "lower"},
	{"session.run_ms.engine", "ms", "lower"},
	{"decomp.run_ms.sim", "ms", "lower"},
	{"decomp.run_ms.engine", "ms", "lower"},
	{"session.overhead_ms", "ms", "lower"},
	{"core.phases", "count", "lower"},
	{"core.round_us", "us", "lower"},
	{"dist.round_us", "us", "lower"},
	{"dist.rounds", "count", "lower"},
	{"dist.messages", "count", "lower"},
	{"dist.words", "count", "lower"},
	{"decomp.alloc_kb_per_op.sim", "KB", "lower"},
	{"decomp.alloc_kb_per_op.engine", "KB", "lower"},
	{"session.evictions", "count", "lower"},
	{"dyn.apply_ms.small", "ms", "lower"},
	{"dyn.apply_ms.large", "ms", "lower"},
	{"graph.compact_ms.small", "ms", "lower"},
	{"graph.compact_ms.large", "ms", "lower"},
	{"dyn.update_ms.small", "ms", "lower"},
	{"dyn.update_ms.large", "ms", "lower"},
	{"dyn.region_vertices.small", "count", "lower"},
	{"dyn.region_vertices.large", "count", "lower"},
	{"dyn.damaged_vertices.small", "count", "lower"},
	{"dyn.damaged_vertices.large", "count", "lower"},
	{"dyn.fallback_ratio.small", "1", "lower"},
	{"dyn.fallback_ratio.large", "1", "lower"},
	{"dyn.recompute_ms.small", "ms", "lower"},
	{"dyn.recompute_ms.large", "ms", "lower"},
	{"dyn.repair_vs_recompute.small", "1", "lower"},
	{"dyn.repair_vs_recompute.large", "1", "lower"},
	{"serve.register_ms", "ms", "lower"},
	{"serve.prime_ms", "ms", "lower"},
	{"graph.build_ms", "ms", "lower"},
	{"graph.fingerprint_ms", "ms", "lower"},
	{"dyn.bootstrap_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	e2e               map[string]float64 // untraced run
	layers            map[string]float64 // traced run
	notes             []string           // human-readable lines printed before the metrics
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// notef appends one human-readable report line.
func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failRatio() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

// zeroLayers fills every per-layer metric the workload did not set with 0:
// the workload does not reach that layer.
func (r *result) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := r.layers[d.name]; !ok {
			r.layers[d.name] = 0
		}
	}
}

// classSamples reports one class of work's latency metrics under the
// generic a/b names. Given several blocks of the measured phase, each
// percentile is the median of the per-block percentiles, which a burst of
// machine noise in one block does not move; the pooled figures are printed
// beside them.
func (r *result) classSamples(class, what string, blocks ...samples) {
	var p50s, tails, pooled samples
	for _, b := range blocks {
		t, _, _ := b.tail()
		p50s = append(p50s, b.p50())
		tails = append(tails, t)
		pooled = append(pooled, b...)
	}
	r.e2e[class+"_p50_ms"] = p50s.p50()
	r.e2e[class+"_tail_ms"] = tails.p50()
	tail, pct, beyond := pooled.tail()
	r.notef("class %s (%s): n=%d pooled p50 %.4g ms, tail p%.4g %.4g ms with %d samples beyond, mean %.4g ms",
		class, what, len(pooled), pooled.p50(), pct, tail, beyond, pooled.mean())
	if len(blocks) > 1 {
		r.notef("class %s: median over %d blocks of the block p50 %.4g ms and tail %.4g ms", class, len(blocks), p50s.p50(), tails.p50())
	}
}

// samples holds one class of work's measurements (milliseconds unless a
// caller says otherwise).
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank quantile: the smallest sample with at least
// a share q of the samples at or below it.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Sorted(slices.Values(s))
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func (s samples) p50() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tailMinBeyond is how many samples must lie beyond a reported tail, and
// tailMaxPct caps the tail percentile: past p99 a percentile of a few
// seconds of serving traffic measures the machine, not the program.
const (
	tailMinBeyond = 10
	tailMaxPct    = 99.0
)

// tail returns the highest percentile with at least tailMinBeyond samples
// beyond it (capped at p99), as its value, the percentile, and the number
// of samples beyond it. When that percentile would not lie above the
// median, too few samples exist for a tail and it degrades to the maximum.
func (s samples) tail() (value, pct float64, beyond int) {
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	sorted := slices.Sorted(slices.Values(s))
	i := n - 1 - tailMinBeyond
	if i <= (n+1)/2-1 {
		return sorted[n-1], 100, 0
	}
	if capped := int(math.Ceil(tailMaxPct/100*float64(n))) - 1; capped < i {
		i = capped
	}
	return sorted[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

// heapAfterGC is runtime.MemStats.HeapAlloc in MB after a forced GC.
func heapAfterGC() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// medianRun returns the index of the run with the median duration.
func medianRun(ds []time.Duration) int {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return int(ds[a] - ds[b]) })
	return idx[(len(idx)-1)/2]
}

// layerRow is one line of a layer sum table: a layer's mean per op.
type layerRow struct {
	name string
	ms   float64
}

// sumTable renders the traced run's layer rows beside the end-to-end mean
// they explain, with the unattributed remainder, so the rows visibly add
// up. Every figure is a mean in milliseconds.
func (r *result) sumTable(title string, total float64, rows ...layerRow) {
	r.notef("layer sum: %s", title)
	sum := 0.0
	for _, row := range rows {
		sum += row.ms
		r.notef("  %-34s %10.4f ms  %5.1f%%", row.name, row.ms, pct(row.ms, total))
	}
	r.notef("  %-34s %10.4f ms  %5.1f%%", "sum of layer rows", sum, pct(sum, total))
	r.notef("  %-34s %10.4f ms  %5.1f%%", "unattributed", total-sum, pct(total-sum, total))
	r.notef("  %-34s %10.4f ms", "end-to-end mean", total)
}

func pct(v, total float64) float64 { return 100 * ratio(v, total) }

// ratio is a/b, or 0 when b is 0 (a run too short to measure b).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
