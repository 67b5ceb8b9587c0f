// Package graph implements the static unweighted undirected graphs on which
// every algorithm in this repository operates, together with the traversal
// primitives (breadth-first search, connected components, induced
// subgraphs, diameters) that the decomposition algorithms and their
// validators are built from.
//
// Storage is compressed sparse row (CSR): one flat offsets array and one
// flat neighbors array for the whole graph, so a BFS touches two cache-
// friendly slices instead of chasing one heap allocation per vertex.
// Graphs are immutable once built: construct them with a Builder, the
// two-pass FromStream path or one of the internal/gen generators, or
// Splice replaced rows into a copy of an existing graph, then share them
// freely across goroutines. Vertices are dense integers 0..N()-1, which
// is also the identifier space the distributed model assumes ("distinct
// identity numbers from the range {1..n}", Elkin–Neiman Section 1.1,
// shifted to 0-based here).
//
// The read-only Interface (N/Degree/Neighbors) is the contract every
// traversal primitive and decomposition algorithm accepts; *Graph and the
// zero-copy *View subgraphs both satisfy it, and external callers can plug
// in custom backends the same way.
package graph

import (
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// MaxVertices is the largest vertex count a Graph can index: the CSR
// stores vertex ids as int32. Code that takes n from outside the program
// rejects anything larger before building.
const MaxVertices = math.MaxInt32

// Interface is the read-only graph contract accepted by every traversal
// primitive (BFS, Components, Diameter, ...) and every decomposition
// algorithm in the repository. *Graph and *View satisfy it; custom
// backends can too.
//
// Implementations must present a simple undirected graph on the dense
// vertex set 0..N()-1 where Neighbors(v) returns v's adjacency sorted
// strictly ascending, without self-loops or duplicates, and the returned
// slice stays valid and unmodified for the lifetime of the value. The
// sorted order is load-bearing: the algorithms' traversal order — and
// therefore their bit-exact outputs — is a function of it.
type Interface interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the degree of vertex v.
	Degree(v int) int
	// Neighbors returns the sorted adjacency list of v, owned by the
	// graph.
	Neighbors(v int) []int32
}

// Graph is an immutable simple undirected graph with vertices 0..n-1,
// stored in compressed sparse row form.
//
// The zero value is the empty graph with no vertices. All methods are safe
// for concurrent use because the structure is never mutated after
// construction.
type Graph struct {
	offsets   []int64 // len n+1; row v is neighbors[offsets[v]:offsets[v+1]]
	neighbors []int32 // concatenated sorted adjacency rows, len 2m
	m         int     // number of undirected edges
	fp        atomic.Uint64
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the sorted adjacency list of v: a window into the
// graph's flat neighbor array. The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.neighbors[g.offsets[v]:g.offsets[v+1]] }

// CSR exposes the raw compressed-sparse-row arrays (offsets of length
// N()+1 and the concatenated neighbor rows). Both slices are owned by the
// graph and must not be modified; they exist for flat-iteration hot paths
// and zero-copy interop.
func (g *Graph) CSR() (offsets []int64, neighbors []int32) { return g.offsets, g.neighbors }

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool { return HasEdge(g, u, v) }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int { return MaxDegree(g) }

// Edges returns all edges as pairs {u, v} with u < v, in lexicographic
// order. The result is freshly allocated on every call, sized exactly;
// prefer EdgeSeq when the materialized slice is not needed.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, g.m)
	i := 0
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if int32(u) < w {
				edges[i] = [2]int{u, int(w)}
				i++
			}
		}
	}
	return edges
}

// EdgeSeq returns an iterator over all edges as pairs (u, v) with u < v,
// in lexicographic order, without materializing an edge list.
func (g *Graph) EdgeSeq() iter.Seq2[int, int] { return EdgeSeq(g) }

// Fingerprint returns the content digest of the graph (see the package
// function Fingerprint). It is computed on first use and cached.
//
// The cache is sound only because Graph is immutable: nothing may change
// offsets or neighbors after construction, so the digest of the adjacency
// structure is fixed for the value's lifetime. Every layer that keys on
// the fingerprint (the session cache, the serving registries, the
// persistent store) relies on this contract. Mutable wrappers — such as
// the edge overlay in internal/dyn — must therefore never alias this
// cached digest: each mutated version is a distinct logical graph and
// must carry its own fingerprint, recomputed from its own adjacency
// (graph.FingerprintUncached), never inherited from the base.
func (g *Graph) Fingerprint() uint64 {
	// The digest of an immutable graph never changes; recomputing on the
	// (extremely unlikely) sentinel collision is harmless, so a plain
	// atomic cache suffices and keeps Graph trivially copyable.
	if fp := g.fp.Load(); fp != 0 {
		return fp
	}
	fp := fingerprintOf(g)
	if fp == 0 {
		fp = 1 // reserve the sentinel; still deterministic
	}
	g.fp.Store(fp)
	return fp
}

// String summarizes the graph for debugging output.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable CSR Graph.
// Duplicate edges and self-loops are silently dropped, so generators can
// be sloppy. Edges are staged as one flat pair list — no per-vertex
// allocation happens until Build lays out the final rows.
//
// The zero value is not usable; call NewBuilder with the vertex count.
type Builder struct {
	n     int
	pairs []int32 // interleaved endpoints u0,v0,u1,v1,...
}

// NewBuilder returns a builder for a graph on n vertices. It panics if n is
// negative (a caller bug, never a data condition).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: NewBuilder called with negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// It panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.pairs = append(b.pairs, int32(u), int32(v))
}

// Grow reserves capacity for at least edges further AddEdge calls.
func (b *Builder) Grow(edges int) {
	b.pairs = slices.Grow(b.pairs, 2*edges)
}

// Build finalizes the builder into an immutable Graph: a two-pass counting
// layout into the flat CSR arrays, then per-row slices.Sort and
// slices.Compact to order and deduplicate. The builder must not be used
// after Build.
func (b *Builder) Build() *Graph {
	n := b.n
	offsets := make([]int64, n+1)
	for i := 0; i < len(b.pairs); i += 2 {
		offsets[b.pairs[i]+1]++
		offsets[b.pairs[i+1]+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for i := 0; i < len(b.pairs); i += 2 {
		u, v := b.pairs[i], b.pairs[i+1]
		neighbors[cursor[u]] = v
		cursor[u]++
		neighbors[cursor[v]] = u
		cursor[v]++
	}
	b.pairs = nil
	return finishCSR(n, offsets, neighbors)
}

// finishCSR sorts and deduplicates every row of a raw (possibly
// duplicate-carrying) CSR layout in place, compacting rows leftward, and
// wraps the result in a Graph.
func finishCSR(n int, offsets []int64, neighbors []int32) *Graph {
	var write, start int64
	for v := 0; v < n; v++ {
		end := offsets[v+1]
		row := neighbors[start:end]
		slices.Sort(row)
		row = slices.Compact(row)
		offsets[v] = write
		copy(neighbors[write:], row)
		start = end
		write += int64(len(row))
	}
	offsets[n] = write
	return &Graph{offsets: offsets, neighbors: neighbors[:write:write], m: int(write / 2)}
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// FromStream builds a graph on n vertices from a replayable edge stream,
// constructing the CSR arrays directly with no intermediate edge staging:
// stream is invoked exactly twice — once counting degrees, once filling
// rows — and must yield the same edges (any order-stable source: a
// deterministic generator replayed from a snapshotted rng, a buffered
// list, a file read twice). Self-loops are dropped and duplicates removed,
// exactly as with Builder; out-of-range endpoints panic.
//
// A stream that yields differently on its second invocation corrupts
// nothing — the fill pass panics on overflow or leaves short rows that
// finishCSR compacts — but the result is unspecified; streams must be
// replayable.
func FromStream(n int, stream func(yield func(u, v int))) *Graph {
	if n < 0 {
		panic("graph: FromStream called with negative vertex count")
	}
	offsets := make([]int64, n+1)
	stream(func(u, v int) {
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
		}
		if u == v {
			return
		}
		offsets[u+1]++
		offsets[v+1]++
	})
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	stream(func(u, v int) {
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
		}
		if u == v {
			return
		}
		neighbors[cursor[u]] = int32(v)
		cursor[u]++
		neighbors[cursor[v]] = int32(u)
		cursor[v]++
	})
	return finishCSR(n, offsets, neighbors)
}

// Splice returns a copy of g in which the adjacency row of every vertex v
// in rows is replaced by rows[v]; every other row is copied unchanged.
// One pass over offsets shifts each run of unchanged rows by the length
// change of the rows replaced before it, and neighbors is filled by one
// copy per run of unchanged rows and one per replaced row: no edge stream
// and no sort.
//
// The replaced rows must keep the Interface contract (sorted strictly
// ascending, in range, no self-loops) and leave the edge set symmetric.
// Splice checks neither; its caller, the dyn overlay, patches both
// endpoints of every edge it changes. A key outside [0, N()) panics. The
// result shares no memory with g or rows.
func (g *Graph) Splice(rows map[int32][]int32) *Graph {
	n := g.N()
	vs := slices.AppendSeq(make([]int32, 0, len(rows)+1), maps.Keys(rows))
	slices.Sort(vs)
	size := len(g.neighbors)
	for _, v := range vs {
		size += len(rows[v]) - g.Degree(int(v))
	}
	offsets := make([]int64, n+1)
	neighbors := make([]int32, 0, size)
	// Each v ends a run of unchanged rows starting at from; n ends the last.
	from := 0
	for _, v := range append(vs, int32(n)) {
		to := int(v)
		if from < to {
			shift := int64(len(neighbors)) - g.offsets[from]
			for u := from; u < to; u++ {
				offsets[u] = g.offsets[u] + shift
			}
			neighbors = append(neighbors, g.neighbors[g.offsets[from]:g.offsets[to]]...)
		}
		if to < n {
			offsets[to] = int64(len(neighbors))
			neighbors = append(neighbors, rows[v]...)
		}
		from = to + 1
	}
	offsets[n] = int64(len(neighbors))
	return &Graph{offsets: offsets, neighbors: neighbors, m: len(neighbors) / 2}
}

// Package-level primitives over Interface. Each mirrors a *Graph method so
// that algorithms written against Interface and call sites holding a
// concrete graph read the same.

// HasEdge reports whether the edge {u, v} is present, by binary search in
// u's sorted adjacency row.
func HasEdge(g Interface, u, v int) bool {
	list := g.Neighbors(u)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= int32(v) })
	return i < len(list) && list[i] == int32(v)
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func MaxDegree(g Interface) int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// EdgeCount returns the number of undirected edges, using the backend's
// own count when it keeps one (as *Graph and *View do).
func EdgeCount(g Interface) int {
	if c, ok := g.(interface{ M() int }); ok {
		return c.M()
	}
	total := 0
	for v := 0; v < g.N(); v++ {
		total += g.Degree(v)
	}
	return total / 2
}

// Edges returns all edges of g as pairs {u, v} with u < v, in
// lexicographic order, sized exactly.
func Edges(g Interface) [][2]int {
	if gg, ok := g.(*Graph); ok {
		return gg.Edges()
	}
	edges := make([][2]int, 0, EdgeCount(g))
	for u, v := range EdgeSeq(g) {
		edges = append(edges, [2]int{u, v})
	}
	return edges
}

// EdgeSeq returns an iterator over the edges of g as pairs (u, v) with
// u < v, in lexicographic order, without materializing an edge list.
func EdgeSeq(g Interface) iter.Seq2[int, int] {
	return func(yield func(u, v int) bool) {
		for u := 0; u < g.N(); u++ {
			for _, w := range g.Neighbors(u) {
				if int32(u) < w {
					if !yield(u, int(w)) {
						return
					}
				}
			}
		}
	}
}
