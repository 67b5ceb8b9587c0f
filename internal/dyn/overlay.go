// Package dyn is the dynamic-graph subsystem: a mutable edge overlay over
// the immutable CSR core, and an incremental maintenance engine that keeps
// a decomposition current under edge churn without recomputing from
// scratch.
//
// The overlay is functional: Apply never modifies the receiver, it returns
// a new version sharing every untouched adjacency row with its
// predecessor. Each version is therefore immutable after construction and
// satisfies graph.Interface with the same sorted-row contract as *Graph,
// so every decomposer, traversal and serving layer works on it unchanged.
// Versions carry their own content fingerprint — recomputed from their own
// adjacency, never aliased from the base (see graph.Graph.Fingerprint's
// immutability contract) — so the session cache and serving registries key
// mutated graphs correctly for free.
//
// Past a delta threshold the overlay should be compacted into a flat CSR
// graph with Compact, which splices the patched rows into a copy of the
// base CSR: reads through the patch map cost a lookup per row, and a long
// mutation history buys nothing once the damage is woven in.
//
// The maintenance engine (Maintainer, maintainer.go) pairs the overlay
// with internal/core's repair path: Elkin–Neiman ball growing has locally
// bounded influence — a changed edge can only affect vertices whose
// broadcast balls reach it — so a small mutation batch usually invalidates
// only a small damage region, which is re-simulated while every other
// cluster is reused bit-for-bit.
package dyn

import (
	"fmt"
	"slices"
	"sync/atomic"

	"netdecomp/internal/graph"
)

// Op is a mutation kind.
type Op uint8

// Mutation operations.
const (
	OpInsert Op = iota + 1
	OpDelete
)

// String returns the wire name of the op.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Mutation is one edge change: insert or delete the undirected edge {U,V}.
type Mutation struct {
	Op   Op
	U, V int32
}

// Batch is an ordered list of mutations applied atomically by Apply.
type Batch []Mutation

// ApplyResult reports what a batch actually did.
type ApplyResult struct {
	// Inserted and Deleted count the mutations that changed the edge set;
	// Noops counts the ones that didn't (inserting a present edge, deleting
	// an absent one).
	Inserted, Deleted, Noops int
	// Effective lists the mutations that changed the edge set, in batch
	// order — the damage sources the maintenance engine repairs from.
	// Noops are excluded: an edge that was already there damages nothing.
	Effective []Mutation
}

// Overlay is one immutable version of a mutable graph: a base CSR graph
// plus per-vertex patched adjacency rows for every vertex an applied
// mutation touched. It satisfies graph.Interface (sorted rows, stable
// slices) and is safe for concurrent use; Apply produces the next version
// without modifying the receiver.
type Overlay struct {
	base    *graph.Graph
	rows    map[int32][]int32 // patched rows, sorted ascending
	m       int               // current undirected edge count
	version uint64            // 0 for a freshly wrapped base
	delta   int               // effective mutations since the base CSR
	fp      atomic.Uint64     // cached digest of THIS version (0 = unset)
}

// Wrap presents g as overlay version 0. A *graph.Graph is wrapped
// directly; an *Overlay is returned as-is (it already is a version); any
// other backend is materialized into a flat CSR first.
func Wrap(g graph.Interface) *Overlay {
	switch t := g.(type) {
	case *Overlay:
		return t
	case *graph.Graph:
		return &Overlay{base: t, m: t.M()}
	}
	return &Overlay{base: Materialize(g), m: graph.EdgeCount(g)}
}

// N returns the number of vertices (fixed across versions: mutations
// change edges, never the vertex set).
func (o *Overlay) N() int { return o.base.N() }

// M returns the number of undirected edges of this version.
func (o *Overlay) M() int { return o.m }

// Degree returns the degree of vertex v in this version.
func (o *Overlay) Degree(v int) int {
	if row, ok := o.rows[int32(v)]; ok {
		return len(row)
	}
	return o.base.Degree(v)
}

// Neighbors returns the sorted adjacency row of v in this version. The
// slice is owned by the overlay and must not be modified.
func (o *Overlay) Neighbors(v int) []int32 {
	if row, ok := o.rows[int32(v)]; ok {
		return row
	}
	return o.base.Neighbors(v)
}

// Version is the number of Apply steps between the base CSR and this
// value.
func (o *Overlay) Version() uint64 { return o.version }

// DeltaSize is the number of effective mutations this version carries over
// the base CSR — the quantity compared against the compaction threshold.
func (o *Overlay) DeltaSize() int { return o.delta }

// Base returns the underlying immutable CSR graph.
func (o *Overlay) Base() *graph.Graph { return o.base }

// Fingerprint returns the content digest of this version, computed on
// first use and cached. Every version hashes its own adjacency — the
// digest is never inherited from the base, so a mutated overlay can never
// alias the base graph's cached fingerprint (the immutability contract
// graph.Graph.Fingerprint documents).
func (o *Overlay) Fingerprint() uint64 {
	if fp := o.fp.Load(); fp != 0 {
		return fp
	}
	fp := graph.FingerprintUncached(o)
	if fp == 0 {
		fp = 1 // reserve the sentinel; still deterministic
	}
	o.fp.Store(fp)
	return fp
}

// String summarizes the overlay version.
func (o *Overlay) String() string {
	return fmt.Sprintf("overlay{n=%d m=%d version=%d delta=%d}", o.N(), o.m, o.version, o.delta)
}

// validate rejects a malformed mutation before anything is applied.
func (o *Overlay) validate(mut Mutation) error {
	if mut.Op != OpInsert && mut.Op != OpDelete {
		return fmt.Errorf("dyn: unknown op %d", int(mut.Op))
	}
	n := int32(o.N())
	if mut.U < 0 || mut.U >= n || mut.V < 0 || mut.V >= n {
		return fmt.Errorf("dyn: %s{%d,%d} out of range [0,%d)", mut.Op, mut.U, mut.V, n)
	}
	if mut.U == mut.V {
		return fmt.Errorf("dyn: %s{%d,%d} is a self-loop", mut.Op, mut.U, mut.V)
	}
	return nil
}

// Apply produces the next version with the batch applied in order,
// leaving the receiver untouched. Inserting a present edge or deleting an
// absent one is a counted no-op, not an error — batches compose from
// concurrent sources and the edge set is the authority. A malformed
// mutation (unknown op, endpoint out of range, self-loop) rejects the
// whole batch: versions are all-or-nothing.
func (o *Overlay) Apply(b Batch) (*Overlay, ApplyResult, error) {
	var res ApplyResult
	for _, mut := range b {
		if err := o.validate(mut); err != nil {
			return nil, ApplyResult{}, err
		}
	}
	next := &Overlay{
		base:    o.base,
		rows:    make(map[int32][]int32, len(o.rows)+2*len(b)),
		m:       o.m,
		version: o.version + 1,
		delta:   o.delta,
	}
	for v, row := range o.rows {
		next.rows[v] = row
	}
	// Rows patched during THIS Apply are private copies and may be edited
	// in place on a later mutation of the same batch.
	touched := make(map[int32]bool, 2*len(b))
	for _, mut := range b {
		present := rowHas(next.Neighbors(int(mut.U)), mut.V)
		if (mut.Op == OpInsert) == present {
			res.Noops++
			continue
		}
		next.patchRow(mut.U, mut.V, mut.Op, touched)
		next.patchRow(mut.V, mut.U, mut.Op, touched)
		next.delta++
		if mut.Op == OpInsert {
			next.m++
			res.Inserted++
		} else {
			next.m--
			res.Deleted++
		}
		res.Effective = append(res.Effective, mut)
	}
	return next, res, nil
}

// patchRow inserts or removes w in u's adjacency row, copying the row
// first unless this Apply already owns it.
func (o *Overlay) patchRow(u, w int32, op Op, touched map[int32]bool) {
	row := o.Neighbors(int(u))
	if !touched[u] {
		row = slices.Clone(row)
		touched[u] = true
	}
	i, _ := slices.BinarySearch(row, w)
	if op == OpInsert {
		row = slices.Insert(row, i, w)
	} else {
		row = slices.Delete(row, i, i+1)
	}
	o.rows[u] = row
}

// rowHas reports whether w occurs in the sorted row.
func rowHas(row []int32, w int32) bool {
	_, ok := slices.BinarySearch(row, w)
	return ok
}

// Compact returns this version as a flat immutable CSR graph: a copy of
// the base CSR with the patched rows spliced in (graph.Graph.Splice), with
// no edge stream and no sort. Its CSR arrays, edge count and fingerprint
// equal Materialize's. The compacted graph reads without the patch-map
// lookup and drops the mutation history.
func (o *Overlay) Compact() *graph.Graph { return o.base.Splice(o.rows) }

// Materialize builds a flat CSR copy of any graph backend via the
// two-pass stream path (no intermediate edge staging). Wrap uses it for
// backends that are not a *graph.Graph.
func Materialize(g graph.Interface) *graph.Graph {
	return graph.FromStream(g.N(), func(yield func(u, v int)) {
		for u, v := range graph.EdgeSeq(g) {
			yield(u, v)
		}
	})
}
