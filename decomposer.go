package netdecomp

import (
	"context"

	"netdecomp/internal/apps"
	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
)

// The unified Decomposer API: one interface, one result type, one
// registry. Every algorithm in the repository is reachable as
//
//	d, err := netdecomp.Get("elkin-neiman/theorem2")
//	p, err := d.Decompose(ctx, g, netdecomp.WithSeed(7), netdecomp.WithK(5))
//	rep := netdecomp.VerifyPartition(g, p)
//
// and every consumer — VerifyPartition, AppInputFromPartition (feeding
// MIS/Coloring/Matching), BuildCover, BuildSpannerFrom — accepts the
// resulting *Partition, whatever algorithm produced it.

// Decomposer is the single entry point every registered algorithm
// implements.
type Decomposer = decomp.Decomposer

// Partition is the unified result of any registered algorithm: clusters
// with colors, completeness, the strong/weak diameter mode, and the
// CONGEST metrics of the producing execution.
type Partition = decomp.Partition

// PartitionCluster is one cluster of a Partition.
type PartitionCluster = decomp.Cluster

// DiameterMode distinguishes strong- from weak-diameter guarantees.
type DiameterMode = decomp.DiameterMode

// The two diameter notions.
const (
	StrongDiameter = decomp.StrongDiameter
	WeakDiameter   = decomp.WeakDiameter
)

// DecomposeOption is a functional option accepted by every Decomposer.
type DecomposeOption = decomp.Option

// DecomposerConfig is the resolved option set a Decomposer receives;
// custom algorithms registered via NewDecomposer read the fields they
// understand and ignore the rest.
type DecomposerConfig = decomp.Config

// RoundStats is the per-round traffic record streamed to observers.
type RoundStats = dist.RoundStats

// Get returns the algorithm registered under name ("elkin-neiman",
// "elkin-neiman/theorem1..3", "elkin-neiman/dist", "linial-saks", "mpx",
// "mpx/dist", "ball-carving", plus anything the application registered).
func Get(name string) (Decomposer, error) { return decomp.Get(name) }

// MustGet is Get for statically known names; it panics on unknown names.
func MustGet(name string) Decomposer { return decomp.MustGet(name) }

// Algorithms returns every registered algorithm name, sorted.
func Algorithms() []string { return decomp.Names() }

// RegisterDecomposer adds a Decomposer to the registry (last registration
// under a name wins). Use decomp.Func-style adapters via NewDecomposer.
func RegisterDecomposer(d Decomposer) { decomp.Register(d) }

// NewDecomposer wraps a plain function as a registrable Decomposer. The
// function receives any read-only graph backend (GraphInterface), which
// *Graph and *GraphView both satisfy.
func NewDecomposer(name string, run func(ctx context.Context, g GraphInterface, cfg DecomposerConfig) (*Partition, error)) Decomposer {
	return decomp.Func{AlgorithmName: name, Run: run}
}

// Functional options, shared by every algorithm (each algorithm reads the
// fields it understands and ignores the rest).

// WithSeed sets the random seed; equal seeds give identical runs.
func WithSeed(seed uint64) DecomposeOption { return decomp.WithSeed(seed) }

// WithK sets the radius parameter (Elkin–Neiman Theorems 1–2,
// Linial–Saks, ball carving).
func WithK(k int) DecomposeOption { return decomp.WithK(k) }

// WithLambda sets the Theorem 3 color budget.
func WithLambda(lambda int) DecomposeOption { return decomp.WithLambda(lambda) }

// WithC sets the confidence parameter of the randomized algorithms.
func WithC(c float64) DecomposeOption { return decomp.WithC(c) }

// WithBeta sets the MPX exponential rate.
func WithBeta(beta float64) DecomposeOption { return decomp.WithBeta(beta) }

// WithForceComplete keeps carving until every vertex is clustered.
func WithForceComplete() DecomposeOption { return decomp.WithForceComplete() }

// WithPhaseBudget overrides the theorem's phase budget.
func WithPhaseBudget(budget int) DecomposeOption { return decomp.WithPhaseBudget(budget) }

// WithExactRadius selects untruncated broadcasts (sequential Elkin–Neiman
// only).
func WithExactRadius() DecomposeOption { return decomp.WithExactRadius() }

// WithEngine executes on the message-passing engine where the algorithm
// has both paths.
func WithEngine() DecomposeOption { return decomp.WithEngine() }

// WithObserver streams per-round traffic statistics to fn as the run
// executes.
func WithObserver(fn func(RoundStats)) DecomposeOption { return decomp.WithObserver(fn) }

// VerifyPartition checks any Partition against its graph with the
// invariants appropriate to its mode: disjoint clusters (covering the
// graph iff Complete), connected induced subgraphs iff the algorithm
// bounds the strong diameter, and a proper supergraph coloring iff the
// algorithm provides one.
func VerifyPartition(g GraphInterface, p *Partition) *VerifyReport { return p.Verify(g) }

// AppInputFromPartition adapts any complete Partition for the
// applications (MIS, Coloring, Matching). Partitions without a proper
// supergraph coloring (MPX) are first-fit recolored.
func AppInputFromPartition(g GraphInterface, p *Partition) (AppInput, error) {
	return apps.FromPartition(g, p)
}
