package cover

import (
	"testing"

	"netdecomp/internal/gen"
)

// BenchmarkCoverTorus16384 measures one W = 1 cover of the 128x128 torus.
// G^3's balls hold about 25 vertices, so the searches cost about 25n;
// the part that grows as n^2 is power's scan of one distance entry per
// vertex pair, which allocates nothing.
func BenchmarkCoverTorus16384(b *testing.B) {
	g, err := gen.Build(gen.FamilyTorus, 16384, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{W: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
