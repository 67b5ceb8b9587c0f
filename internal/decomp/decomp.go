// Package decomp is the unified decomposition API of the repository: one
// Decomposer interface and one string-keyed registry covering every
// clustering algorithm the repo implements — Elkin–Neiman in all three
// theorem regimes (sequential simulation and true engine execution),
// Linial–Saks, Miller–Peng–Xu (sequential and engine-backed), and
// deterministic ball carving.
//
// The point of the paper is that strong-diameter decomposition is a
// drop-in primitive: Elkin–Neiman competes head-to-head with Linial–Saks
// and MPX and then feeds the same downstream consumers (MIS, coloring,
// matching, covers, spanners). This package makes that literal: every
// algorithm is reachable as
//
//	d, _ := decomp.Get("elkin-neiman/theorem2")
//	p, err := d.Decompose(ctx, g, decomp.WithSeed(7), decomp.WithK(5))
//
// and every consumer accepts the resulting *Partition, so head-to-head
// experiments and derived structures are loops over registry names rather
// than per-algorithm glue. The result type itself lives in the leaf
// package internal/partition, which the producers (internal/core,
// internal/baseline) build directly; the names below alias it.
package decomp

import "netdecomp/internal/partition"

// The result type, aliased from internal/partition.
type (
	// Partition is the result of every registered algorithm.
	Partition = partition.Partition
	// Cluster is one cluster of a Partition.
	Cluster = partition.Cluster
	// DiameterMode records which diameter notion an algorithm bounds.
	DiameterMode = partition.DiameterMode
	// Frozen is the immutable compact form of a Partition.
	Frozen = partition.Frozen
)

// The two diameter modes.
const (
	StrongDiameter = partition.StrongDiameter
	WeakDiameter   = partition.WeakDiameter
)
