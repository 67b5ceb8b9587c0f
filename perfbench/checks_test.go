package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/serve"
)

// warmBody renders a decompose response the way the server writes it.
func warmBody(t *testing.T, p *decomp.Partition, hit bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(serve.DecomposeResponse{
		Graph: "00000000000000aa", Plan: "00000000000000bb", Seed: 3,
		Algorithm: p.Algorithm, CacheHit: hit, LatencyNs: 12345, Partition: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallPartition(t *testing.T) (*graph.Graph, *decomp.Partition) {
	t.Helper()
	g, err := gen.Build(gen.FamilyGnp, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete(), decomp.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Run(t.Context(), g)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func TestByteCheckRejectsOneByteFlip(t *testing.T) {
	_, p := smallPartition(t)
	want, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := warmBody(t, p, true)
	if err := checkWarmBody(body, want); err != nil {
		t.Fatalf("a correct body was rejected: %v", err)
	}
	start := bytes.Index(body, partitionField) + len(partitionField)
	for i := start; i < len(body)-2; i++ {
		flipped := bytes.Clone(body)
		flipped[i] ^= 0x01
		if checkWarmBody(flipped, want) == nil {
			t.Fatalf("a flip of byte %d (%q) was accepted", i, body[i])
		}
	}
	if err := checkWarmBody(warmBody(t, p, false), want); err == nil || !strings.Contains(err.Error(), "cache hit") {
		t.Errorf("a miss was accepted as a warm hit: %v", err)
	}
	if err := checkWarmBody(body[:len(body)-1], want); err == nil {
		t.Error("a truncated body was accepted")
	}
}

func TestCheckDecomposition(t *testing.T) {
	g, p := smallPartition(t)
	if _, over, err := checkDecomposition(g, p, 1<<20); err != nil || over != 0 {
		t.Fatalf("a real decomposition failed: over %d, %v", over, err)
	}

	// At bound 0 every multi-vertex cluster is over the bound: counted,
	// not rejected.
	multi := 0
	for _, c := range p.Clusters {
		if len(c.Members) > 1 {
			multi++
		}
	}
	if _, over, err := checkDecomposition(g, p, 0); err != nil || over != multi {
		t.Errorf("bound 0: over %d, err %v; want %d clusters over, no error", over, err, multi)
	}

	// Two adjacent clusters recolored alike.
	bad := p.Clone()
	u, w := interClusterEdge(g, bad)
	if u < 0 {
		t.Fatal("the decomposition has a single cluster")
	}
	bad.Clusters[bad.ClusterOf[w]].Color = bad.Clusters[bad.ClusterOf[u]].Color
	if _, _, err := checkDecomposition(g, bad, 1<<20); err == nil {
		t.Error("an improper coloring passed")
	}

	bad = p.Clone()
	bad.Complete = false
	if _, _, err := checkDecomposition(g, bad, 1<<20); err == nil {
		t.Error("an incomplete partition passed")
	}

}

func interClusterEdge(g graph.Interface, p *decomp.Partition) (int, int) {
	for u, v := range graph.EdgeSeq(g) {
		if p.ClusterOf[u] != p.ClusterOf[v] {
			return u, v
		}
	}
	return -1, -1
}

// TestCheckDecompositionFallsBackToExactDiameter builds a path cluster
// whose center sits at one end: its radius is twice what the certificate
// allows but its diameter meets the bound.
func TestCheckDecompositionFallsBackToExactDiameter(t *testing.T) {
	g := gen.Path(5)
	p := &decomp.Partition{
		N: 5, Complete: true, ClusterOf: []int{0, 0, 0, 0, 0},
		Clusters: []decomp.Cluster{{Members: []int{0, 1, 2, 3, 4}, Center: 0}},
	}
	if uncertified, over, err := checkDecomposition(g, p, 4); err != nil || uncertified != 1 || over != 0 {
		t.Errorf("diameter 4 at bound 4: uncertified %d, over %d, err %v; want 1, 0, nil", uncertified, over, err)
	}
	if _, over, err := checkDecomposition(g, p, 3); err != nil || over != 1 {
		t.Errorf("diameter 4 at bound 3: over %d, err %v; want 1, nil", over, err)
	}
	p.Clusters[0].Center = 2
	if uncertified, _, err := checkDecomposition(g, p, 4); err != nil || uncertified != 0 {
		t.Errorf("centered cluster: uncertified %d, err %v; want 0, nil", uncertified, err)
	}

	// {0,2} is disconnected once 1 sits in another cluster: an error, not
	// a diameter count.
	p = &decomp.Partition{
		N: 5, Complete: true, ClusterOf: []int{0, 1, 0, 2, 2},
		Clusters: []decomp.Cluster{
			{Members: []int{0, 2}, Center: 0, Color: 0},
			{Members: []int{1}, Center: 1, Color: 1},
			{Members: []int{3, 4}, Center: 3, Color: 1},
		},
	}
	if _, _, err := checkDecomposition(g, p, 4); err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Errorf("a disconnected cluster: %v", err)
	}
}
