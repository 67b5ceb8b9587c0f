package partition

import (
	"errors"
	"fmt"
	"math"

	"netdecomp/internal/dist"
)

// Frozen is the immutable compact form of a Partition: the scalar header
// plus int32 columns — every cluster's members concatenated in cluster
// order with per-cluster offsets, the vertex assignment, and the center,
// phase and color of each cluster. The assignment column is kept only when
// it says more than the member lists: when every listed vertex maps to its
// cluster and every other vertex to -1 (what every registered algorithm
// produces), it is rebuilt from the members on demand. It is what the
// session cache holds, about 7 bytes per vertex against about 25 for a
// *Partition with its per-cluster member slices.
//
// A Frozen is never mutated after Freeze returns, so one value may be
// shared by any number of goroutines without locks or copies: readers
// either encode it (AppendJSON) or materialize their own Partition.
type Frozen struct {
	algorithm    string
	n            int
	colors       int
	phasesUsed   int
	phaseBudget  int
	complete     bool
	mode         DiameterMode
	properColors bool
	metrics      dist.Metrics
	cutEdges     int
	cutFraction  float64

	// offsets has one entry per cluster plus a final one: cluster i's
	// members are members[offsets[i]:offsets[i+1]].
	offsets []int32
	members []int32
	// clusterOf is the assignment of the nAssigned vertices, nil when the
	// members imply it.
	clusterOf []int32
	nAssigned int
	center    []int32
	phase     []int32
	color     []int32
}

// Freeze returns the immutable compact form of p. It copies everything it
// keeps, so p stays the caller's. A member, assignment, center, phase or
// color outside the int32 range is an error — values are never truncated.
func (p *Partition) Freeze() (*Frozen, error) {
	if p == nil {
		return nil, errors.New("partition: freezing a nil partition")
	}
	k := len(p.Clusters)
	total := 0
	for i := range p.Clusters {
		total += len(p.Clusters[i].Members)
	}
	if total > math.MaxInt32 || k > math.MaxInt32 {
		return nil, fmt.Errorf("partition: freezing partition: %d clusters of %d members overflow int32", k, total)
	}
	f := &Frozen{
		algorithm:    p.Algorithm,
		n:            p.N,
		colors:       p.Colors,
		phasesUsed:   p.PhasesUsed,
		phaseBudget:  p.PhaseBudget,
		complete:     p.Complete,
		mode:         p.Mode,
		properColors: p.ProperColors,
		metrics:      p.Metrics,
		cutEdges:     p.CutEdges,
		cutFraction:  p.CutFraction,
		nAssigned:    len(p.ClusterOf),
	}
	kept := len(p.ClusterOf)
	if impliedByMembers(p) {
		kept = 0
	}
	// One allocation carved into the columns.
	col := make([]int32, (k+1)+total+kept+3*k)
	carve := func(n int) []int32 {
		c := col[:n:n]
		col = col[n:]
		return c
	}
	f.offsets, f.members = carve(k+1), carve(total)
	if kept > 0 {
		f.clusterOf = carve(kept)
	}
	f.center, f.phase, f.color = carve(k), carve(k), carve(k)
	pos := 0
	for i := range p.Clusters {
		c := &p.Clusters[i]
		f.offsets[i] = int32(pos)
		for _, v := range c.Members {
			if !fitsInt32(v) {
				return nil, fmt.Errorf("partition: freezing partition: cluster %d member %d is outside int32", i, v)
			}
			f.members[pos] = int32(v)
			pos++
		}
		if !fitsInt32(c.Center) || !fitsInt32(c.Phase) || !fitsInt32(c.Color) {
			return nil, fmt.Errorf("partition: freezing partition: cluster %d center, phase or color (%d, %d, %d) is outside int32",
				i, c.Center, c.Phase, c.Color)
		}
		f.center[i], f.phase[i], f.color[i] = int32(c.Center), int32(c.Phase), int32(c.Color)
	}
	f.offsets[k] = int32(pos)
	for v := range f.clusterOf {
		ci := p.ClusterOf[v]
		if !fitsInt32(ci) {
			return nil, fmt.Errorf("partition: freezing partition: clusterOf[%d] = %d is outside int32", v, ci)
		}
		f.clusterOf[v] = int32(ci)
	}
	return f, nil
}

func fitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// impliedByMembers reports whether p.ClusterOf is exactly the assignment
// the member lists imply: every listed vertex mapped to its cluster (so
// none is listed by two clusters) and every unlisted vertex to -1.
func impliedByMembers(p *Partition) bool {
	listed := make([]bool, len(p.ClusterOf))
	for i := range p.Clusters {
		for _, v := range p.Clusters[i].Members {
			if v < 0 || v >= len(listed) || p.ClusterOf[v] != i {
				return false
			}
			listed[v] = true
		}
	}
	for v, ci := range p.ClusterOf {
		if !listed[v] && ci != -1 {
			return false
		}
	}
	return true
}

// assignment fills dst, of length f.nAssigned, with the vertex
// assignment.
func assignment[T int | int32](f *Frozen, dst []T) {
	if f.clusterOf != nil {
		for v, ci := range f.clusterOf {
			dst[v] = T(ci)
		}
		return
	}
	for v := range dst {
		dst[v] = -1
	}
	for i := range f.center {
		for _, v := range f.members[f.offsets[i]:f.offsets[i+1]] {
			dst[v] = T(i)
		}
	}
}

// Partition materializes a fresh Partition, reflect.DeepEqual to what
// Clone of the frozen partition returns: nothing in it aliases f or any
// other materialized copy, so the caller may mutate it freely. The
// clusters' member slices share one backing array, each capped at its
// own length, so an append to one cluster's members never reaches
// another's.
func (f *Frozen) Partition() *Partition {
	p := &Partition{
		Algorithm:    f.algorithm,
		N:            f.n,
		Clusters:     make([]Cluster, len(f.center)),
		Colors:       f.colors,
		PhasesUsed:   f.phasesUsed,
		PhaseBudget:  f.phaseBudget,
		Complete:     f.complete,
		Mode:         f.mode,
		ProperColors: f.properColors,
		Metrics:      f.metrics,
		CutEdges:     f.cutEdges,
		CutFraction:  f.cutFraction,
	}
	if f.nAssigned > 0 { // nil when empty, as Clone leaves it
		p.ClusterOf = make([]int, f.nAssigned)
		assignment(f, p.ClusterOf)
	}
	members := make([]int, len(f.members))
	for i, v := range f.members {
		members[i] = int(v)
	}
	for i := range p.Clusters {
		c := &p.Clusters[i]
		if lo, hi := f.offsets[i], f.offsets[i+1]; hi > lo {
			c.Members = members[lo:hi:hi]
		}
		c.Center, c.Phase, c.Color = int(f.center[i]), int(f.phase[i]), int(f.color[i])
	}
	return p
}
