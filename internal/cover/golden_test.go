package cover

import (
	"fmt"
	"hash/fnv"
	"testing"

	"netdecomp/internal/gen"
)

// TestCoverGolden pins a digest of what Build and Verify return on T11's
// graphs and on the pipeline tests' graph, so a change to how the balls
// are searched cannot move a cover set, color, degree, round count or
// measured diameter unnoticed.
func TestCoverGolden(t *testing.T) {
	for _, tc := range []struct {
		family gen.Family
		n      int
		seed   uint64
		opts   Options
		want   string
	}{
		{gen.FamilyGnp, 200, 24, Options{W: 1, K: 4, Seed: 1}, "92791061d7815f53"},
		{gen.FamilyGnp, 200, 24, Options{W: 2, K: 4, Seed: 1}, "484fdaefc786213e"},
		{gen.FamilyGrid, 200, 47, Options{W: 1, K: 4, Seed: 1}, "326acfcc39805d7c"},
		{gen.FamilyGrid, 200, 47, Options{W: 2, K: 4, Seed: 1}, "925da6f1dba5548b"},
		{gen.FamilyGnp, 1024, 1, Options{W: 1, Seed: 7}, "0fec4034424ff933"},
	} {
		name := fmt.Sprintf("%s/n=%d/W=%d", tc.family, tc.n, tc.opts.W)
		g, err := gen.Build(tc.family, tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(g, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diam, err := c.Verify(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := fnv.New64a()
		fmt.Fprint(h, c.Clusters, c.Color, c.Degree, c.Colors, c.Rounds, diam)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("%s: digest %s, want %s (sets %d, degree %d, colors %d, rounds %d, diameter %d)",
				name, got, tc.want, len(c.Clusters), c.Degree, c.Colors, c.Rounds, diam)
		}
	}
}
