package partition_test

import (
	"context"
	"encoding/json"
	"testing"

	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/partition"
	"netdecomp/internal/randx"
)

// TestPartitionJSONStable pins the exact document a fixed partition
// marshals to — field order and float rendering are a frozen API contract
// (the serving daemon's responses diff cleanly across builds).
func TestPartitionJSONStable(t *testing.T) {
	p := &partition.Partition{
		Algorithm:    "mpx",
		N:            4,
		Clusters:     []partition.Cluster{{Members: []int{0, 1}, Center: 0, Phase: 0, Color: 0}, {Members: []int{2, 3}, Center: 3, Phase: 1, Color: 0}},
		ClusterOf:    []int{0, 0, 1, 1},
		Colors:       1,
		PhasesUsed:   2,
		PhaseBudget:  3,
		Complete:     true,
		Mode:         partition.StrongDiameter,
		ProperColors: false,
		CutEdges:     1,
		CutFraction:  0.2,
	}
	p.Metrics.Rounds = 7
	p.Metrics.Messages = 41
	p.Metrics.Words = 82
	p.Metrics.MaxMessageWords = 2

	const want = `{"algorithm":"mpx","n":4,` +
		`"clusters":[{"members":[0,1],"center":0,"phase":0,"color":0},{"members":[2,3],"center":3,"phase":1,"color":0}],` +
		`"clusterOf":[0,0,1,1],"colors":1,"phasesUsed":2,"phaseBudget":3,"complete":true,"mode":"strong","properColors":false,` +
		`"metrics":{"rounds":7,"messages":41,"words":82,"maxMessageWords":2},"cutEdges":1,"cutFraction":0.2}`
	got, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("unstable marshal:\n got %s\nwant %s", got, want)
	}
	// Round-trippable by a generic decoder (the document is valid JSON).
	var m map[string]any
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatalf("document does not parse: %v", err)
	}
	if m["algorithm"] != "mpx" || m["mode"] != "strong" {
		t.Fatalf("decoded document mangled: %v", m)
	}
}

// TestPartitionJSONDeterministic: equal partitions from a real run marshal
// to identical bytes every time, and float fields never drift.
func TestPartitionJSONDeterministic(t *testing.T) {
	g := gen.Gnp(randx.New(3), 128, 0.06)
	d, err := decomp.Get("mpx")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := d.Decompose(context.Background(), g, decomp.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.Decompose(context.Background(), g, decomp.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("equal runs marshalled differently:\n%s\n%s", b1, b2)
	}
	b3, _ := json.Marshal(p1.Clone())
	if string(b1) != string(b3) {
		t.Fatalf("clone marshalled differently:\n%s\n%s", b1, b3)
	}
}
