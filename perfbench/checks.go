package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
)

// The output checks. Each returns an error naming the first wrong output;
// a workload that sees one stops with a non-zero exit.

// Byte markers of the decompose response document (serve.DecomposeResponse
// encodes its fields in declaration order, the partition last).
var (
	partitionField = []byte(`"partition":`)
	hitField       = []byte(`"cacheHit":true,`)
)

// partitionBytes extracts the partition document from a decompose response
// body without decoding it, and reports whether the response was a hit.
func partitionBytes(body []byte) (part []byte, hit bool, err error) {
	i := bytes.Index(body, partitionField)
	if i < 0 || !bytes.HasSuffix(body, []byte("}\n")) {
		return nil, false, errors.New("response is not a decompose document")
	}
	return body[i+len(partitionField) : len(body)-2], bytes.Contains(body[:i], hitField), nil
}

// checkWarmBody accepts a body only when it is a cache hit whose partition
// bytes equal want, the bytes captured when the key was primed.
func checkWarmBody(body, want []byte) error {
	part, hit, err := partitionBytes(body)
	switch {
	case err != nil:
		return err
	case !hit:
		return errors.New("warm request was not served as a cache hit")
	case !bytes.Equal(part, want):
		return errors.New("served partition bytes differ from the primed bytes")
	}
	return nil
}

// samePartition compares two partitions on cluster assignment and colors.
func samePartition(a, b *decomp.Partition) error {
	if !slices.Equal(a.ClusterOf, b.ClusterOf) {
		return errors.New("ClusterOf differs")
	}
	if !slices.Equal(a.ClusterColors(), b.ClusterColors()) {
		return errors.New("cluster colors differ")
	}
	return nil
}

// checkDecomposition checks one network decomposition of g against the
// paper's guarantees without an all-pairs diameter pass. Every vertex must
// be clustered, colors must be proper across every inter-cluster edge, and
// every cluster must be connected; those hold on every run, and a breach is
// an error. The strong-diameter bound diamBound is the theorem's
// probabilistic part: it holds whenever no broadcast was truncated
// (Lemma 1's events E_v, probability at most 2/c), so clusters over it are
// counted, not rejected, and the caller bounds their rate. A BFS inside
// each cluster from its Center reaching every member within diamBound/2
// hops certifies the bound cheaply; a cluster it does not certify (a
// truncated phase can put members k hops out, or leave the recorded Center
// outside the cluster) gets its exact strong diameter. uncertified counts
// those clusters and over the ones whose diameter exceeds diamBound.
func checkDecomposition(g graph.Interface, p *decomp.Partition, diamBound int) (uncertified, over int, err error) {
	n := g.N()
	if !p.Complete || len(p.ClusterOf) != n {
		return 0, 0, errors.New("partition is not complete")
	}
	for v, c := range p.ClusterOf {
		if c < 0 || c >= len(p.Clusters) {
			return 0, 0, fmt.Errorf("vertex %d is unclustered", v)
		}
		for _, w := range g.Neighbors(v) {
			cw := p.ClusterOf[w]
			if cw != c && p.Clusters[cw].Color == p.Clusters[c].Color {
				return 0, 0, fmt.Errorf("edge {%d,%d} joins clusters %d and %d of color %d", v, w, c, cw, p.Clusters[c].Color)
			}
		}
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	for ci, c := range p.Clusters {
		if len(c.Members) == 0 {
			return 0, 0, fmt.Errorf("cluster %d is empty", ci)
		}
		src, centered := c.Center, c.Center >= 0 && c.Center < n && p.ClusterOf[c.Center] == ci
		if !centered {
			src = c.Members[0]
		}
		queue = append(queue[:0], int32(src))
		dist[src] = 0
		radius := int32(0)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			radius = dist[u]
			for _, w := range g.Neighbors(int(u)) {
				if dist[w] < 0 && p.ClusterOf[w] == ci {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		if len(queue) != len(c.Members) {
			return 0, 0, fmt.Errorf("cluster %d is disconnected: %d of %d members reachable inside it", ci, len(queue), len(c.Members))
		}
		if centered && int(radius) <= diamBound/2 {
			continue
		}
		uncertified++
		if d, _ := graph.SubsetStrongDiameter(g, c.Members); d > diamBound {
			over++
		}
	}
	return uncertified, over, nil
}
