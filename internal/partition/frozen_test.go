package partition_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/partition"
)

// randomPartition builds an arbitrary (not necessarily valid) partition:
// empty clusters, unassigned vertices, negative centers, per-round
// metrics and a nil or empty ClusterOf all occur.
func randomPartition(r *rand.Rand) *partition.Partition {
	n := r.Intn(40)
	p := &partition.Partition{
		Algorithm:    []string{"elkin-neiman", "mpx", "x<&>\x01"}[r.Intn(3)],
		N:            n,
		Colors:       r.Intn(9),
		PhasesUsed:   r.Intn(5),
		PhaseBudget:  r.Intn(7),
		Complete:     r.Intn(2) == 0,
		Mode:         partition.DiameterMode(1 + r.Intn(2)),
		ProperColors: r.Intn(2) == 0,
		CutEdges:     r.Intn(100),
		CutFraction:  r.Float64(),
		Metrics: dist.Metrics{
			Rounds: r.Intn(50), Messages: r.Int63(), Words: r.Int63(), MaxMessageWords: r.Intn(4),
		},
	}
	switch r.Intn(3) {
	case 0: // nil ClusterOf
	case 1:
		p.ClusterOf = []int{}
	default:
		p.ClusterOf = make([]int, n)
		for v := range p.ClusterOf {
			p.ClusterOf[v] = r.Intn(5) - 1
		}
	}
	if r.Intn(4) > 0 {
		p.Clusters = make([]partition.Cluster, r.Intn(6))
	}
	for i := range p.Clusters {
		c := &p.Clusters[i]
		if k := r.Intn(6); k > 0 {
			c.Members = make([]int, k)
			for j := range c.Members {
				c.Members[j] = r.Intn(n + 1)
			}
		} else if r.Intn(2) == 0 {
			c.Members = []int{}
		}
		c.Center, c.Phase, c.Color = r.Intn(n+2)-1, r.Intn(4), r.Intn(9)
	}
	return p
}

// TestFreezeMaterializesLikeClone: Freeze then Partition is DeepEqual to
// Clone — on random partitions, on one with no clusters at all, and on
// every registered algorithm's real output — and the copy is independent
// of the frozen form.
func TestFreezeMaterializesLikeClone(t *testing.T) {
	var ps []*partition.Partition
	r := rand.New(rand.NewSource(1))
	for range 500 {
		ps = append(ps, randomPartition(r))
	}
	ps = append(ps, &partition.Partition{Algorithm: "empty"}, &partition.Partition{Algorithm: "empty", Clusters: []partition.Cluster{}, ClusterOf: []int{}})
	g, err := gen.Build(gen.FamilyGnp, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range decomp.Names() {
		for _, opts := range [][]decomp.Option{{decomp.WithForceComplete()}, {decomp.WithPhaseBudget(1)}} {
			p, err := decomp.MustGet(name).Decompose(context.Background(), g, append(opts, decomp.WithSeed(5))...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Real outputs keep no assignment column: their members imply it.
			if f, err := p.Freeze(); err != nil || partition.KeepsAssignment(f) {
				t.Fatalf("%s: Freeze kept an explicit clusterOf (err %v)", name, err)
			}
			ps = append(ps, p)
		}
	}
	for i, p := range ps {
		f, err := p.Freeze()
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		got, want := f.Partition(), p.Clone()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d: Freeze+Partition differs from Clone:\n got %+v\nwant %+v", i, got, want)
		}
		// Mutating the copy, appending to a member slice included, leaves
		// the frozen form and the other clusters untouched.
		for c := range got.Clusters {
			got.Clusters[c].Members = append(got.Clusters[c].Members, -7)
			got.Clusters[c].Color = -7
		}
		for v := range got.ClusterOf {
			got.ClusterOf[v] = -7
		}
		if again := f.Partition(); !reflect.DeepEqual(again, want) {
			t.Fatalf("partition %d: mutating a materialized copy reached the frozen form", i)
		}
		for c := range got.Clusters {
			m := got.Clusters[c].Members
			if !slices.Equal(m[:len(m)-1], want.Clusters[c].Members) {
				t.Fatalf("partition %d: an append to one cluster's members overwrote another's", i)
			}
		}
	}
}

// TestFreezeRejectsOutOfInt32: a value that does not fit the int32
// columns is an error naming it — never silently truncated.
func TestFreezeRejectsOutOfInt32(t *testing.T) {
	base := func() *partition.Partition {
		return &partition.Partition{N: 2, ClusterOf: []int{0, 0}, Clusters: []partition.Cluster{{Members: []int{0, 1}}}}
	}
	for _, tc := range []struct {
		what   string
		mutate func(p *partition.Partition)
	}{
		{"member", func(p *partition.Partition) { p.Clusters[0].Members[1] = math.MaxInt32 + 1 }},
		{"clusterOf", func(p *partition.Partition) { p.ClusterOf[1] = math.MinInt32 - 1 }},
		{"center", func(p *partition.Partition) { p.Clusters[0].Center = 1 << 40 }},
		{"phase", func(p *partition.Partition) { p.Clusters[0].Phase = -(1 << 33) }},
		{"color", func(p *partition.Partition) { p.Clusters[0].Color = math.MaxInt32 + 5 }},
	} {
		p := base()
		tc.mutate(p)
		if f, err := p.Freeze(); err == nil || !strings.Contains(err.Error(), "outside int32") {
			t.Errorf("%s out of range: Freeze = %v, %v; want an int32 range error", tc.what, f, err)
		}
		if _, err := p.MarshalJSON(); err == nil {
			t.Errorf("%s out of range: MarshalJSON succeeded", tc.what)
		}
	}
	if _, err := base().Freeze(); err != nil {
		t.Fatalf("in-range partition rejected: %v", err)
	}
	var nilP *partition.Partition
	if _, err := nilP.Freeze(); err == nil {
		t.Error("freezing a nil partition succeeded")
	}
}

// TestPartitionJSONQuotesLikeEncodingJSON: names that strconv.AppendQuote
// would render as Go syntax (\x01) or leave raw (<, &, U+2028, invalid
// UTF-8) marshal exactly as encoding/json quotes them, so the document is
// valid JSON and json.Marshal of the partition equals MarshalJSON.
func TestPartitionJSONQuotesLikeEncodingJSON(t *testing.T) {
	names := []string{"a\x01", "<&>", "line\u2028sep\u2029", "lone\xffbyte", "q\"b\\s\b\f\n\r\t\x7f", "plain"}
	for _, name := range names {
		p := &partition.Partition{Algorithm: name, N: 1, ClusterOf: []int{0}, Clusters: []partition.Cluster{{Members: []int{0}}}, Mode: partition.StrongDiameter}
		mine, err := p.MarshalJSON()
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		viaJSON, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%q: json.Marshal: %v", name, err)
		}
		if string(mine) != string(viaJSON) {
			t.Fatalf("%q: MarshalJSON %s != json.Marshal %s", name, mine, viaJSON)
		}
		quoted, _ := json.Marshal(name)
		if got := partition.AppendJSONString(nil, name); string(got) != string(quoted) {
			t.Fatalf("%q: AppendJSONString %s != json.Marshal %s", name, got, quoted)
		}
		var back partition.Partition
		if err := json.Unmarshal(mine, &back); err != nil {
			t.Fatalf("%q: document does not decode: %v", name, err)
		}
		// Invalid UTF-8 decodes as U+FFFD, the one lossy case (encoding/json
		// behaves the same).
		if want := strings.ToValidUTF8(name, "\uFFFD"); back.Algorithm != want {
			t.Fatalf("%q: decoded name %q, want %q", name, back.Algorithm, want)
		}
	}
}

// TestClusterJSONDelegates: a cluster marshals alone to exactly the bytes
// it occupies inside its partition's document.
func TestClusterJSONDelegates(t *testing.T) {
	p := &partition.Partition{N: 3, ClusterOf: []int{0, 1, 1}, Clusters: []partition.Cluster{
		{Members: []int{0}, Center: 0, Phase: 1, Color: 2},
		{Members: []int{1, 2}, Center: 2, Phase: 3, Color: 4},
	}}
	doc, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p.Clusters {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(doc), string(b)) {
			t.Fatalf("cluster %d marshals to %s, not found in %s", i, b, doc)
		}
	}
}
