package verify

import (
	"strings"
	"testing"

	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
)

func TestDecompositionValid(t *testing.T) {
	g := gen.Path(6) // 0-1-2-3-4-5
	clusters := [][]int{{0, 1}, {2, 3}, {4, 5}}
	colors := []int{0, 1, 0}
	r := Clustering(g, clusters, colors, true, true, true)
	if !r.Valid() {
		t.Fatalf("valid decomposition rejected: %v", r.Errors)
	}
	if r.MaxStrongDiameter != 1 || r.Colors != 2 || r.Coverage != 1 {
		t.Fatalf("report wrong: %+v", r)
	}
	if r.Err() != nil {
		t.Fatal("Err() non-nil on valid report")
	}
}

func TestDecompositionDetectsImproperColoring(t *testing.T) {
	g := gen.Path(4)
	clusters := [][]int{{0, 1}, {2, 3}}
	colors := []int{0, 0} // adjacent clusters, same color
	r := Clustering(g, clusters, colors, true, true, true)
	if r.Valid() {
		t.Fatal("improper supergraph coloring accepted")
	}
	if !strings.Contains(r.Err().Error(), "equal color") {
		t.Fatalf("unexpected error: %v", r.Err())
	}
}

func TestDecompositionDetectsOverlap(t *testing.T) {
	g := gen.Path(4)
	r := Clustering(g, [][]int{{0, 1}, {1, 2, 3}}, []int{0, 1}, true, true, true)
	if r.Valid() {
		t.Fatal("overlapping clusters accepted")
	}
}

func TestDecompositionDetectsIncomplete(t *testing.T) {
	g := gen.Path(4)
	r := Clustering(g, [][]int{{0, 1}}, []int{0}, true, true, true)
	if r.Valid() {
		t.Fatal("incomplete decomposition accepted with requireComplete")
	}
	r = Clustering(g, [][]int{{0, 1}}, []int{0}, false, true, true)
	if !r.Valid() {
		t.Fatalf("partial decomposition rejected without requireComplete: %v", r.Errors)
	}
	if r.Coverage != 0.5 {
		t.Fatalf("coverage = %v, want 0.5", r.Coverage)
	}
}

func TestDecompositionDetectsDisconnected(t *testing.T) {
	g := gen.Path(5)
	// {0, 2} is disconnected in the induced subgraph.
	clusters := [][]int{{0, 2}, {1}, {3, 4}}
	colors := []int{0, 1, 2}
	r := Clustering(g, clusters, colors, true, true, true)
	if r.Valid() {
		t.Fatal("disconnected cluster accepted with requireConnected")
	}
	r = Clustering(g, clusters, colors, true, false, true)
	if !r.Valid() {
		t.Fatalf("weak decomposition rejected: %v", r.Errors)
	}
	if r.DisconnectedClusters != 1 {
		t.Fatalf("DisconnectedClusters = %d, want 1", r.DisconnectedClusters)
	}
	if r.MaxWeakDiameter != 2 {
		t.Fatalf("MaxWeakDiameter = %d, want 2", r.MaxWeakDiameter)
	}
}

func TestDecompositionBadInputs(t *testing.T) {
	g := gen.Path(3)
	if r := Clustering(g, [][]int{{0}}, []int{0, 1}, true, true, true); r.Valid() {
		t.Fatal("color/cluster length mismatch accepted")
	}
	if r := Clustering(g, [][]int{{}}, []int{0}, false, true, true); r.Valid() {
		t.Fatal("empty cluster accepted")
	}
	if r := Clustering(g, [][]int{{7}}, []int{0}, false, true, true); r.Valid() {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestMISChecker(t *testing.T) {
	g := gen.Path(4)
	if err := MIS(g, []bool{true, false, true, false}); err != nil {
		t.Fatalf("valid MIS rejected: %v", err)
	}
	if err := MIS(g, []bool{true, true, false, true}); err == nil {
		t.Fatal("adjacent members accepted")
	}
	if err := MIS(g, []bool{true, false, false, false}); err == nil {
		t.Fatal("non-maximal set accepted (vertex 2 undominated)")
	}
	if err := MIS(g, []bool{true}); err == nil {
		t.Fatal("wrong-length vector accepted")
	}
}

func TestMISCheckerIsolatedVertices(t *testing.T) {
	g := graph.NewBuilder(3).Build() // no edges
	if err := MIS(g, []bool{true, true, true}); err != nil {
		t.Fatalf("all-isolated MIS rejected: %v", err)
	}
	if err := MIS(g, []bool{true, false, true}); err == nil {
		t.Fatal("isolated vertex excluded from MIS accepted")
	}
}

func TestColoringChecker(t *testing.T) {
	g := gen.Cycle(4)
	if err := Coloring(g, []int{0, 1, 0, 1}, 2); err != nil {
		t.Fatalf("valid 2-coloring rejected: %v", err)
	}
	if err := Coloring(g, []int{0, 1, 0, 0}, 2); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if err := Coloring(g, []int{0, 1, 0, 5}, 2); err == nil {
		t.Fatal("color beyond budget accepted")
	}
	if err := Coloring(g, []int{0, 1, 0, -1}, 2); err == nil {
		t.Fatal("uncolored vertex accepted")
	}
	if err := Coloring(g, []int{0, 1, 0, 9}, 0); err != nil {
		t.Fatalf("budget check not skipped for maxColors<=0: %v", err)
	}
}

func TestMatchingChecker(t *testing.T) {
	g := gen.Path(4)
	if err := Matching(g, []int{1, 0, 3, 2}); err != nil {
		t.Fatalf("perfect matching rejected: %v", err)
	}
	if err := Matching(g, []int{-1, 2, 1, -1}); err != nil {
		t.Fatalf("maximal matching rejected: %v", err)
	}
	if err := Matching(g, []int{-1, -1, 3, 2}); err == nil {
		t.Fatal("non-maximal matching accepted (edge 0-1 free)")
	}
	if err := Matching(g, []int{1, 2, 1, -1}); err == nil {
		t.Fatal("asymmetric matching accepted")
	}
	if err := Matching(g, []int{2, -1, 0, -1}); err == nil {
		t.Fatal("non-edge pair accepted")
	}
	if err := Matching(g, []int{0, -1, -1, -1}); err == nil {
		t.Fatal("self-matching accepted")
	}
	if err := Matching(g, []int{9, -1, -1, -1}); err == nil {
		t.Fatal("out-of-range mate accepted")
	}
}

func TestReportErrTruncation(t *testing.T) {
	g := gen.Path(3)
	// Construct many violations: overlapping singletons of one color.
	clusters := [][]int{{0}, {0}, {0}, {0}, {0}, {0}, {0}}
	colors := make([]int, len(clusters))
	r := Clustering(g, clusters, colors, false, true, true)
	if r.Valid() {
		t.Fatal("should be invalid")
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "violations") {
		t.Fatalf("Err() = %v", err)
	}
}
