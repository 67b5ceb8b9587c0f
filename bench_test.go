// bench_test.go holds one testing.B benchmark per reproduced table and
// figure (see DESIGN.md section 6 and EXPERIMENTS.md): each bench runs the
// corresponding harness driver at ScaleSmall, so `go test -bench=. -benchmem`
// regenerates a reduced version of the full experiment suite and reports
// its cost. cmd/experiments runs the same drivers at full scale.
package netdecomp_test

import (
	"io"
	"testing"

	"netdecomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/harness"
	"netdecomp/internal/randx"
)

// benchDriver runs one harness experiment per iteration, varying the seed
// so the work is not trivially cacheable, and renders the table to io.Discard.
func benchDriver(b *testing.B, id string) {
	b.Helper()
	driver := harness.Lookup(id)
	if driver == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := driver(harness.Config{Scale: harness.ScaleSmall, Seed: uint64(i), Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1Theorem1Sweep regenerates table T1: the Theorem 1 parameter
// sweep (strong diameter ≤ 2k−2, colors ≤ (cn)^{1/k}·ln(cn), rounds ≤
// k(cn)^{1/k}·ln(cn)).
func BenchmarkT1Theorem1Sweep(b *testing.B) { benchDriver(b, "T1") }

// BenchmarkT2Theorem2Staged regenerates table T2: the staged-β color
// improvement of Theorem 2 (colors ≤ 4k(cn)^{1/k}).
func BenchmarkT2Theorem2Staged(b *testing.B) { benchDriver(b, "T2") }

// BenchmarkT3HighRadius regenerates table T3: the high-radius regime of
// Theorem 3 (colors ≤ λ).
func BenchmarkT3HighRadius(b *testing.B) { benchDriver(b, "T3") }

// BenchmarkT4HeadlineScaling regenerates table T4: strong (O(log n),
// O(log n)) decomposition in O(log² n) rounds at k = ⌈ln n⌉.
func BenchmarkT4HeadlineScaling(b *testing.B) { benchDriver(b, "T4") }

// BenchmarkT5VersusLinialSaks regenerates table T5: strong-vs-weak
// head-to-head against Linial–Saks.
func BenchmarkT5VersusLinialSaks(b *testing.B) { benchDriver(b, "T5") }

// BenchmarkT6TruncationEvents regenerates table T6: the Lemma 1 truncation
// probability bound 2/c.
func BenchmarkT6TruncationEvents(b *testing.B) { benchDriver(b, "T6") }

// BenchmarkT7SurvivalDecay regenerates table T7: the Claim 6 geometric
// survival envelope and Corollary 7 exhaustion probability.
func BenchmarkT7SurvivalDecay(b *testing.B) { benchDriver(b, "T7") }

// BenchmarkT8MPXPartition regenerates table T8: MPX cut fraction O(β) and
// diameter O(log n / β).
func BenchmarkT8MPXPartition(b *testing.B) { benchDriver(b, "T8") }

// BenchmarkT9Applications regenerates table T9: MIS / coloring / matching
// in O(D·χ) rounds versus Luby.
func BenchmarkT9Applications(b *testing.B) { benchDriver(b, "T9") }

// BenchmarkT10CongestAccounting regenerates table T10: O(1)-word messages
// on the real message-passing engine.
func BenchmarkT10CongestAccounting(b *testing.B) { benchDriver(b, "T10") }

// BenchmarkT11NeighborhoodCovers regenerates table T11: W-neighborhood
// covers built from decompositions of power graphs (the [ABCP92]
// connection of Section 1.1).
func BenchmarkT11NeighborhoodCovers(b *testing.B) { benchDriver(b, "T11") }

// BenchmarkT12Spanners regenerates table T12: sparse skeleton spanners
// from cluster BFS trees plus bridges (the [DMP+05] connection).
func BenchmarkT12Spanners(b *testing.B) { benchDriver(b, "T12") }

// BenchmarkT13SequentialYardstick regenerates table T13: the distributed
// algorithm against the deterministic sequential ball-carving existence
// bound.
func BenchmarkT13SequentialYardstick(b *testing.B) { benchDriver(b, "T13") }

// BenchmarkA1ForwardingAblation regenerates ablation A1: top-2 forwarding
// is lossless, top-1 is not.
func BenchmarkA1ForwardingAblation(b *testing.B) { benchDriver(b, "A1") }

// BenchmarkF1SurvivalCurve regenerates figure F1: the per-phase survival
// curve against the geometric envelope.
func BenchmarkF1SurvivalCurve(b *testing.B) { benchDriver(b, "F1") }

// BenchmarkF2TradeoffFrontier regenerates figure F2: the diameter/colors
// frontier spanned by Theorems 1 and 3.
func BenchmarkF2TradeoffFrontier(b *testing.B) { benchDriver(b, "F2") }

// BenchmarkF3RoundsScaling regenerates figure F3: round growth versus n
// for Elkin–Neiman and Linial–Saks at k = ⌈ln n⌉.
func BenchmarkF3RoundsScaling(b *testing.B) { benchDriver(b, "F3") }

// --- CSR-core benchmarks -------------------------------------------------
//
// The benchmarks below target the graph layer itself rather than a paper
// table: construction from an edge list, single-source BFS, full edge
// materialization, and one end-to-end elkin-neiman decomposition. They are
// informational graph rows of BENCH_gates.json, recorded after the CSR
// redesign (see cmd/benchdiff).

func csrBenchEdges() (int, [][2]int) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(1), 4096, 8.0/4095)
	return g.N(), g.Edges()
}

// BenchmarkGraphBuild4096 measures Builder throughput: one FromEdges per
// iteration over a fixed ~16k-edge G(n,p) edge list.
func BenchmarkGraphBuild4096(b *testing.B) {
	n, edges := csrBenchEdges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := netdecomp.FromEdges(n, edges)
		if g.N() != n {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkGraphBFS4096 measures single-source BFS over the whole graph,
// rotating the source so no run is trivially cached.
func BenchmarkGraphBFS4096(b *testing.B) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(1), 4096, 8.0/4095)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(i % g.N())
	}
}

// BenchmarkGraphEdges4096 measures full edge-list materialization.
func BenchmarkGraphEdges4096(b *testing.B) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(1), 4096, 8.0/4095)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Edges()) != g.M() {
			b.Fatal("bad edges")
		}
	}
}

// BenchmarkElkinNeimanE2E2048 measures one full forced-complete
// elkin-neiman decomposition through the registry, seed varying per
// iteration.
func BenchmarkElkinNeimanE2E2048(b *testing.B) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(2), 2048, 8.0/2047)
	d := netdecomp.MustGet("elkin-neiman")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := d.Decompose(nil, g,
			netdecomp.WithSeed(uint64(i)), netdecomp.WithForceComplete())
		if err != nil {
			b.Fatal(err)
		}
		if !p.Complete {
			b.Fatal("incomplete")
		}
	}
}

// --- Hot-path benchmarks -------------------------------------------------
//
// Large-scale workloads targeting the two hot loops — the per-phase
// broadcast simulation (core/phaseRunner.run) and the CONGEST engine
// (internal/dist) — at sizes where O(n)-per-round scanning and
// per-envelope mailbox churn dominate. The 2^16 workloads are gated rows
// of BENCH_gates.json, recorded after the frontier-sparse + arena-mailbox
// rebuild; CI runs them through cmd/benchdiff.

// hotpathRun drives one registry algorithm over a fixed graph, varying the
// seed per iteration.
func hotpathRun(b *testing.B, algo string, g netdecomp.GraphInterface, opts ...netdecomp.DecomposeOption) {
	b.Helper()
	d := netdecomp.MustGet(algo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := d.Decompose(nil, g, append([]netdecomp.DecomposeOption{netdecomp.WithSeed(uint64(i))}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		if p.N != g.N() {
			b.Fatal("bad partition")
		}
	}
}

// BenchmarkHotpathSim65536 is the forced-complete sequential simulation on
// a 2^16-vertex G(n,p) with average degree ~8.
func BenchmarkHotpathSim65536(b *testing.B) {
	g := gen.GnpConnected(randx.New(3), 1<<16, 8.0/float64(1<<16-1))
	hotpathRun(b, "elkin-neiman", g, netdecomp.WithForceComplete())
}

// BenchmarkHotpathSim262144 scales the simulation to 2^18 vertices.
func BenchmarkHotpathSim262144(b *testing.B) {
	g := gen.GnpConnected(randx.New(4), 1<<18, 8.0/float64(1<<18-1))
	hotpathRun(b, "elkin-neiman", g, netdecomp.WithForceComplete())
}

// BenchmarkHotpathDist65536 runs the identical workload as a true node
// program on the message-passing engine ("elkin-neiman/dist").
func BenchmarkHotpathDist65536(b *testing.B) {
	g := gen.GnpConnected(randx.New(3), 1<<16, 8.0/float64(1<<16-1))
	hotpathRun(b, "elkin-neiman/dist", g, netdecomp.WithForceComplete())
}

// BenchmarkHotpathMPXDist65536 is the engine-backed MPX partition at 2^16.
func BenchmarkHotpathMPXDist65536(b *testing.B) {
	g := gen.GnpConnected(randx.New(3), 1<<16, 8.0/float64(1<<16-1))
	hotpathRun(b, "mpx/dist", g)
}

// BenchmarkHotpathGridSim65536 is the simulation on the 256×256 mesh —
// bounded degree, long phases, late-phase frontiers a tiny fraction of n.
func BenchmarkHotpathGridSim65536(b *testing.B) {
	g := gen.Grid(256, 256)
	hotpathRun(b, "elkin-neiman", g, netdecomp.WithForceComplete())
}

// BenchmarkHotpathPowerLawDist65536 is the engine run on a 2^16-vertex
// preferential-attachment graph: hub broadcasts fan out wide while the
// typical frontier stays small.
func BenchmarkHotpathPowerLawDist65536(b *testing.B) {
	g := gen.PowerLaw(randx.New(5), 1<<16, 4)
	hotpathRun(b, "elkin-neiman/dist", g, netdecomp.WithForceComplete())
}

// --- Telemetry overhead benchmarks ---------------------------------------
//
// The same hot-path workloads with a metrics recorder attached, against
// the recorder-less runs above. They are informational rows of
// BENCH_gates.json; the recorder-less rows carry the telemetry-off gate,
// 0.2% on allocs/op (disabled telemetry must cost one nil test, not
// allocations).

// BenchmarkObsHotpathSim65536 is BenchmarkHotpathSim65536 with per-round
// frontier/phase histograms and plan counters recording.
func BenchmarkObsHotpathSim65536(b *testing.B) {
	g := gen.GnpConnected(randx.New(3), 1<<16, 8.0/float64(1<<16-1))
	rec := netdecomp.NewRecorder(netdecomp.NewMetricsRegistry(), nil)
	hotpathRun(b, "elkin-neiman", g, netdecomp.WithForceComplete(), netdecomp.WithRecorder(rec))
}

// BenchmarkObsHotpathDist65536 is BenchmarkHotpathDist65536 with the
// engine reporting per-round message/word/active counters.
func BenchmarkObsHotpathDist65536(b *testing.B) {
	g := gen.GnpConnected(randx.New(3), 1<<16, 8.0/float64(1<<16-1))
	rec := netdecomp.NewRecorder(netdecomp.NewMetricsRegistry(), nil)
	hotpathRun(b, "elkin-neiman/dist", g, netdecomp.WithForceComplete(), netdecomp.WithRecorder(rec))
}

// --- Session benchmarks -------------------------------------------------
//
// The serving-layer pair: the cache-hit path (one fingerprint lookup plus
// a fresh Partition materialized from the cached frozen entry — the
// per-request cost a warm deployment pays) against the cold-miss path (a
// full decomposition per request). Both are rows of BENCH_gates.json; the
// hit path is gated so it stays allocation-light.

// BenchmarkSessionCacheHit serves the identical (graph, plan, seed) job
// from a warm session: every iteration must be a cache hit.
func BenchmarkSessionCacheHit(b *testing.B) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(6), 2048, 8.0/2047)
	s := netdecomp.NewSession()
	defer s.Close()
	pl, err := netdecomp.Compile("elkin-neiman",
		netdecomp.WithSeed(7), netdecomp.WithForceComplete())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(nil, pl, g); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Run(nil, pl, g)
		if err != nil {
			b.Fatal(err)
		}
		if !p.Complete {
			b.Fatal("incomplete")
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Hits != uint64(b.N) {
		b.Fatalf("expected %d hits, stats %+v", b.N, st)
	}
}

// BenchmarkSessionColdMiss varies the seed every iteration, so each job
// misses and runs a full decomposition through the session machinery —
// the denominator that shows what a hit saves.
func BenchmarkSessionColdMiss(b *testing.B) {
	g := netdecomp.GnpConnected(netdecomp.NewRNG(6), 2048, 8.0/2047)
	s := netdecomp.NewSession()
	defer s.Close()
	pl, err := netdecomp.Compile("elkin-neiman",
		netdecomp.WithSeed(7), netdecomp.WithForceComplete())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := s.Run(nil, pl.WithSeed(uint64(i)+1000), g)
		if err != nil {
			b.Fatal(err)
		}
		if !p.Complete {
			b.Fatal("incomplete")
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Hits != 0 {
		b.Fatalf("expected no hits, stats %+v", st)
	}
}
