package apps_test

import (
	"context"
	"testing"

	"netdecomp/internal/apps"
	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/randx"
	"netdecomp/internal/verify"
)

// TestApplicationsOnEveryRegisteredAlgorithm: MIS, coloring and matching
// must run — and verify maximal/proper — on the Partition of every
// registered algorithm, not just Elkin–Neiman. This is the cross-algorithm
// payoff of the unified API: MPX's single-color partition is recolored by
// FromPartition, Linial–Saks' disconnected clusters are costed by weak
// diameter, and the sweep works unchanged.
func TestApplicationsOnEveryRegisteredAlgorithm(t *testing.T) {
	g := gen.GnpConnected(randx.New(9), 220, 0.03)
	for _, name := range decomp.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := decomp.MustGet(name).Decompose(context.Background(), g,
				decomp.WithSeed(6), decomp.WithForceComplete())
			if err != nil {
				t.Fatal(err)
			}
			in, err := apps.FromPartition(g, p)
			if err != nil {
				t.Fatal(err)
			}
			// The derived input must carry a proper supergraph coloring
			// even when the partition did not.
			if rep := verify.Clustering(g, in.Clusters, in.Colors, true, false, true); !rep.Valid() {
				t.Fatalf("FromPartition input invalid: %v", rep.Err())
			}
			mis, err := apps.MIS(g, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.MIS(g, mis.InSet); err != nil {
				t.Fatal(err)
			}
			col, err := apps.Coloring(g, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Coloring(g, col.Colors, g.MaxDegree()+1); err != nil {
				t.Fatal(err)
			}
			mat, err := apps.Matching(g, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Matching(g, mat.Mate); err != nil {
				t.Fatal(err)
			}
			if mis.Rounds <= 0 || col.Rounds <= 0 || mat.Rounds <= 0 {
				t.Fatal("application rounds not accounted")
			}
		})
	}
}

// TestFromPartitionRecolorsMPX pins the recoloring contract: the MPX
// partition arrives with one color class; the derived input must use more
// than one class exactly when adjacent clusters exist, and stay proper.
func TestFromPartitionRecolorsMPX(t *testing.T) {
	g := gen.Grid(12, 12)
	p, err := decomp.MustGet("mpx").Decompose(context.Background(), g,
		decomp.WithBeta(0.4), decomp.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.ProperColors {
		t.Fatal("MPX partition claims proper colors")
	}
	in, err := apps.FromPartition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clusters) > 1 {
		distinct := map[int]bool{}
		for _, c := range in.Colors {
			distinct[c] = true
		}
		if len(distinct) < 2 {
			t.Fatal("recoloring left adjacent clusters monochromatic")
		}
	}
	if rep := verify.Clustering(g, in.Clusters, in.Colors, true, false, true); !rep.Valid() {
		t.Fatalf("recolored input improper: %v", rep.Err())
	}
}

// TestFromPartitionRejectsIncomplete: an incomplete partition is rejected.
func TestFromPartitionRejectsIncomplete(t *testing.T) {
	g := gen.GnpConnected(randx.New(3), 150, 0.02)
	p, err := decomp.MustGet("elkin-neiman").Decompose(context.Background(), g,
		decomp.WithK(3), decomp.WithSeed(1), decomp.WithPhaseBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Complete {
		t.Skip("single phase completed")
	}
	if _, err := apps.FromPartition(g, p); err == nil {
		t.Fatal("incomplete partition accepted")
	}
}
