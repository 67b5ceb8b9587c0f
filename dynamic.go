package netdecomp

import (
	"context"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dyn"
	"netdecomp/internal/graph"
)

// The dynamic-graph API: a mutable edge overlay over the immutable CSR
// core plus an incremental maintenance engine that keeps a compiled
// plan's decomposition current under mutation (package internal/dyn).
// Wrap a graph, apply insert/delete batches, Compact back to CSR, and
// hand the effective mutations to a Maintainer — which repairs only the
// damaged region when the plan supports certified repair, and falls back
// to a full recompute when one phase's region passes a quarter of the
// vertices. The repaired partition is always content-identical to running
// the plan from scratch on the mutated graph.
//
//	m, _ := netdecomp.NewMaintainer(ctx, plan, g, netdecomp.MaintainerConfig{})
//	next, res, _ := netdecomp.WrapGraph(m.Graph()).Apply(batch)
//	part, rep, _ := m.Update(ctx, next.Compact(), res.Effective)
//
// See DESIGN.md §15 for the overlay layout, the damage-set derivation
// and the fallback policy.

// Mutation is one edge insertion or deletion.
type Mutation = dyn.Mutation

// MutationBatch is an ordered list of mutations applied atomically.
type MutationBatch = dyn.Batch

// Overlay is a mutable edge overlay over an immutable base graph.
type Overlay = dyn.Overlay

// MutationOp selects insert or delete.
type MutationOp = dyn.Op

// Mutation operations.
const (
	OpInsert = dyn.OpInsert
	OpDelete = dyn.OpDelete
)

// WrapGraph starts a mutation overlay over g (g is never modified).
func WrapGraph(g graph.Interface) *Overlay { return dyn.Wrap(g) }

// Maintainer keeps one compiled plan's decomposition current under
// mutation, repairing incrementally when the plan supports it.
type Maintainer = dyn.Maintainer

// MaintainerConfig configures NewMaintainer.
type MaintainerConfig = dyn.Config

// MaintainerReport describes what one Update did: repair, fallback or
// recompute, with damage/region accounting.
type MaintainerReport = dyn.UpdateReport

// NewMaintainer bootstraps a maintainer: it runs pl on g once (through
// the repair-state path when available) and is then ready for Update.
func NewMaintainer(ctx context.Context, pl *decomp.Plan, g graph.Interface, cfg MaintainerConfig) (*Maintainer, error) {
	return dyn.NewMaintainer(ctx, pl, g, cfg)
}

// EncodeMutations renders a batch as the JSON wire format accepted by
// POST /v1/graphs/{key}/mutate.
func EncodeMutations(b MutationBatch) ([]byte, error) { return dyn.EncodeBatch(b) }

// DecodeMutations parses the JSON wire format into a batch.
func DecodeMutations(data []byte) (MutationBatch, error) { return dyn.DecodeBatchBytes(data) }
