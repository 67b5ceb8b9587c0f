// Package netdecomp is the public facade of the repository: a Go
// implementation of distributed strong-diameter network decomposition
// after Elkin and Neiman (PODC 2016, arXiv:1602.05437), together with the
// Linial–Saks and Miller–Peng–Xu baselines, a synchronous CONGEST
// simulation runtime, symmetry-breaking applications (MIS, (Δ+1)-coloring,
// maximal matching) and validators.
//
// The primary surface is the unified Decomposer API: a string-keyed
// registry of algorithms, one Decompose entry point with functional
// options, and one Partition result type every downstream consumer
// accepts:
//
//	g := netdecomp.GnpConnected(netdecomp.NewRNG(42), 2048, 0.004)
//	d, _ := netdecomp.Get("elkin-neiman")        // or "linial-saks", "mpx", ...
//	p, err := d.Decompose(ctx, g,
//	        netdecomp.WithSeed(7),
//	        netdecomp.WithForceComplete(),
//	        netdecomp.WithObserver(func(r netdecomp.RoundStats) { ... }))
//	rep := netdecomp.VerifyPartition(g, p)
//	in, _ := netdecomp.AppInputFromPartition(g, p) // feeds MIS / Coloring / Matching
//	sp, _ := netdecomp.BuildSpannerFrom(g, p)
//
// Cancellation (ctx) stops runs between rounds or phases; WithObserver
// streams per-round CONGEST traffic as the run executes. The registered
// names are listed by Algorithms(); applications can add their own
// algorithms with RegisterDecomposer.
//
// For repeated or concurrent work, the Plan/Session layer compiles a
// configuration once (Compile → immutable Plan with a stable PlanKey) and
// serves executions through NewSession: a bounded worker pool with
// singleflight deduplication and an LRU cache of completed Partitions
// keyed on (GraphFingerprint, PlanKey, seed), returning fresh copies.
// See examples/session and DESIGN.md §10.
//
// See the examples/ directory for complete programs, README.md for the
// quickstart, and DESIGN.md for the architecture and experiment index.
package netdecomp

import (
	"io"

	"netdecomp/internal/apps"
	"netdecomp/internal/core"
	"netdecomp/internal/cover"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/graphio"
	"netdecomp/internal/randx"
	"netdecomp/internal/spanner"
	"netdecomp/internal/verify"
)

// Graph is an immutable simple undirected graph in compressed-sparse-row
// storage (see internal/graph).
type Graph = graph.Graph

// GraphInterface is the read-only graph contract (N/Degree/Neighbors)
// accepted by every traversal primitive and decomposition algorithm:
// *Graph and *GraphView satisfy it, and it is the extension point for
// custom graph backends.
type GraphInterface = graph.Interface

// GraphView is a zero-copy induced subgraph of any GraphInterface,
// renumbered to a dense local id space (see internal/graph.View).
type GraphView = graph.View

// GraphBuilder accumulates edges into a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// FromEdgeStream builds a graph on n vertices from a replayable edge
// stream via the two-pass CSR layout (no intermediate edge staging); the
// stream is invoked exactly twice and must yield identical edges both
// times.
func FromEdgeStream(n int, stream func(yield func(u, v int))) *Graph {
	return graph.FromStream(n, stream)
}

// InducedSubgraph returns the subgraph induced by the given vertices as a
// zero-copy view, with the local-to-original vertex mapping.
func InducedSubgraph(g GraphInterface, vertices []int) (*GraphView, []int, error) {
	return graph.Induced(g, vertices)
}

// ComponentOf returns the connected component of v as a zero-copy view.
func ComponentOf(g GraphInterface, v int) *GraphView { return graph.Component(g, v) }

// GraphFingerprint returns the stable 64-bit content digest of any graph
// backend — equal for structurally identical graphs however they were
// built — suitable as a cache key for decomposition results.
func GraphFingerprint(g GraphInterface) uint64 { return graph.Fingerprint(g) }

// Options configures an Elkin–Neiman run, as the theorem bound helpers
// below take it (see core.Options for the full field documentation).
type Options = core.Options

// Variant selects the theorem regime.
type Variant = core.Variant

// The three parameter regimes of the paper.
const (
	Theorem1 = core.Theorem1
	Theorem2 = core.Theorem2
	Theorem3 = core.Theorem3
)

// RadiusMode selects truncation semantics.
type RadiusMode = core.RadiusMode

// Radius modes: RadiusCap is the paper's k-round phases; RadiusExact never
// truncates broadcasts.
const (
	RadiusCap   = core.RadiusCap
	RadiusExact = core.RadiusExact
)

// VerifyReport is the validation summary of a decomposition.
type VerifyReport = verify.Report

// Application re-exports.

// AppInput is a complete clustered view consumed by the applications.
type AppInput = apps.Input

// MISResult is a maximal independent set with distributed cost.
type MISResult = apps.MISResult

// MIS computes a maximal independent set by the O(D·χ) color-class sweep.
func MIS(g GraphInterface, in AppInput) (*MISResult, error) { return apps.MIS(g, in) }

// ColoringResult is a (Δ+1)-coloring with distributed cost.
type ColoringResult = apps.ColoringResult

// Coloring computes a (Δ+1)-vertex-coloring by the color-class sweep.
func Coloring(g GraphInterface, in AppInput) (*ColoringResult, error) { return apps.Coloring(g, in) }

// MatchingResult is a maximal matching with distributed cost.
type MatchingResult = apps.MatchingResult

// Matching computes a maximal matching by the color-class sweep.
func Matching(g GraphInterface, in AppInput) (*MatchingResult, error) { return apps.Matching(g, in) }

// LubyMIS runs Luby's randomized MIS baseline.
func LubyMIS(g GraphInterface, seed uint64) (*MISResult, error) { return apps.LubyMIS(g, seed) }

// RandomColoring runs the randomized-trial (Δ+1)-coloring baseline.
func RandomColoring(g GraphInterface, seed uint64) (*ColoringResult, error) {
	return apps.RandomColoring(g, seed)
}

// Derived structures built on top of the decomposition.

// CoverOptions configures a neighborhood-cover construction.
type CoverOptions = cover.Options

// Cover is a W-neighborhood cover with quality measures.
type Cover = cover.Cover

// BuildCover constructs a W-neighborhood cover of g by decomposing the
// power graph G^{2W+1} and expanding clusters by W hops ([ABCP92]).
func BuildCover(g GraphInterface, o CoverOptions) (*Cover, error) { return cover.Build(g, o) }

// Spanner is a sparse skeleton subgraph with quality measures.
type Spanner = spanner.Spanner

// BuildSpannerFrom constructs the skeleton from any complete Partition —
// weak-diameter partitions are refined into connected pieces first.
func BuildSpannerFrom(g GraphInterface, p *Partition) (*Spanner, error) { return spanner.Build(g, p) }

// Graph interchange.

// WriteGraph emits g in the edge-list interchange format, streaming the
// edges (no [][2]int materialization).
func WriteGraph(w io.Writer, g GraphInterface) error { return graphio.Write(w, g) }

// ReadGraph parses an edge-list graph.
func ReadGraph(r io.Reader) (*Graph, error) { return graphio.Read(r) }

// Generator re-exports: the workload families used by the experiments.

// RNG is the deterministic generator threaded through the graph builders.
type RNG = randx.SplitMix64

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return randx.New(seed) }

// Gnp returns an Erdős–Rényi G(n, p) sample.
func Gnp(rng *RNG, n int, p float64) *Graph { return gen.Gnp(rng, n, p) }

// GnpConnected returns a connected G(n, p) sample (random backbone added).
func GnpConnected(rng *RNG, n int, p float64) *Graph { return gen.GnpConnected(rng, n, p) }

// Grid returns the rows×cols mesh.
func Grid(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// RandomTree returns a random labelled tree on n vertices.
func RandomTree(rng *RNG, n int) *Graph { return gen.RandomTree(rng, n) }

// RingOfCliques returns k s-cliques arranged in a ring.
func RingOfCliques(k, s int) *Graph { return gen.RingOfCliques(k, s) }

// Bound helpers re-exported for experiment code.

// TheoremDiameterBound returns the strong-diameter bound for the options.
func TheoremDiameterBound(n int, o Options) (int, error) { return core.TheoremDiameterBound(n, o) }

// TheoremColorBound returns the color bound for the options.
func TheoremColorBound(n int, o Options) (float64, error) { return core.TheoremColorBound(n, o) }

// TheoremRoundBound returns the round bound for the options.
func TheoremRoundBound(n int, o Options) (float64, error) { return core.TheoremRoundBound(n, o) }
