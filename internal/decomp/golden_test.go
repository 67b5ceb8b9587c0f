package decomp

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"netdecomp/internal/gen"
)

// partitionDigest folds every observable field of a Partition that the
// acceptance contract pins — cluster members, centers, phases, colors, the
// vertex assignment, color count and completeness — into one FNV-1a hash.
// Metrics are deliberately excluded: they describe the execution, not the
// partition.
func partitionDigest(p *Partition) uint64 {
	h := fnv.New64a()
	w := func(x int) {
		var buf [8]byte
		v := uint64(x)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w(p.N)
	w(len(p.Clusters))
	for i := range p.Clusters {
		c := &p.Clusters[i]
		w(len(c.Members))
		for _, v := range c.Members {
			w(v)
		}
		w(c.Center)
		w(c.Phase)
		w(c.Color)
	}
	for _, ci := range p.ClusterOf {
		w(ci)
	}
	w(p.Colors)
	if p.Complete {
		w(1)
	} else {
		w(0)
	}
	return h.Sum64()
}

// goldenPartitions pins the exact output of every registered algorithm on
// fixed inputs. These hashes were recorded on the pre-CSR [][]int32 graph
// representation; the CSR redesign must reproduce them bit-for-bit, which
// holds because both store sorted adjacency and every algorithm's traversal
// order is a function of that order alone.
func TestGoldenPartitions(t *testing.T) {
	type input struct {
		name   string
		family gen.Family
		n      int
		seed   uint64
	}
	inputs := []input{
		{"gnp300", gen.FamilyGnp, 300, 1},
		{"ring128", gen.FamilyRingOfCliques, 128, 2},
		{"tree200", gen.FamilyTree, 200, 3},
	}
	want := goldenDigests
	for _, in := range inputs {
		g, err := gen.Build(in.family, in.n, in.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Names() {
			d := MustGet(algo)
			p, err := d.Decompose(context.Background(), g,
				WithSeed(7), WithForceComplete())
			if err != nil {
				t.Fatalf("%s on %s: %v", algo, in.name, err)
			}
			key := fmt.Sprintf("%s/%s", algo, in.name)
			got := partitionDigest(p)
			if want[key] != got {
				t.Errorf("%q: %#016x, // digest mismatch, want %#016x", key, got, want[key])
			}
			// The compile/execute split must reproduce the same digests:
			// Compile + Plan.Run is the path Decompose now shims onto, and
			// the session layer serves (internal/session runs the same
			// golden inputs through a warm Session in its own tests).
			pl, err := Compile(algo, WithSeed(7), WithForceComplete())
			if err != nil {
				t.Fatalf("%s on %s: compile: %v", algo, in.name, err)
			}
			pp, err := pl.Run(context.Background(), g)
			if err != nil {
				t.Fatalf("%s on %s: plan run: %v", algo, in.name, err)
			}
			if got := partitionDigest(pp); want[key] != got {
				t.Errorf("%q via Plan.Run: %#016x, want %#016x", key, got, want[key])
			}
		}
	}
}

// TestGoldenDocuments pins the whole stable result document of every
// registered algorithm on the golden inputs — not only the clusters that
// partitionDigest hashes, but also the algorithm name, diameter mode,
// ProperColors, the CONGEST metrics, the phase loop and the MPX cut
// measures — as an FNV-1a hash of MarshalJSON's bytes.
func TestGoldenDocuments(t *testing.T) {
	inputs := []struct {
		name   string
		family gen.Family
		n      int
		seed   uint64
	}{
		{"gnp300", gen.FamilyGnp, 300, 1},
		{"ring128", gen.FamilyRingOfCliques, 128, 2},
		{"tree200", gen.FamilyTree, 200, 3},
	}
	for _, in := range inputs {
		g, err := gen.Build(in.family, in.n, in.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Names() {
			p, err := MustGet(algo).Decompose(context.Background(), g,
				WithSeed(7), WithForceComplete())
			if err != nil {
				t.Fatalf("%s on %s: %v", algo, in.name, err)
			}
			doc, err := p.MarshalJSON()
			if err != nil {
				t.Fatalf("%s on %s: marshal: %v", algo, in.name, err)
			}
			h := fnv.New64a()
			h.Write(doc)
			key := fmt.Sprintf("%s/%s", algo, in.name)
			if got, want := h.Sum64(), goldenDocumentDigests[key]; got != want {
				t.Errorf("%q: %#016x, // document digest mismatch, want %#016x", key, got, want)
			}
		}
	}
}
