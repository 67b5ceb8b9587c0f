package graphio

import (
	"bytes"
	"strings"
	"testing"

	"netdecomp/internal/gen"
	"netdecomp/internal/randx"
)

func TestRoundTrip(t *testing.T) {
	g := gen.GnpConnected(randx.New(1), 200, 0.02)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: %v -> %v", g, g2)
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := `# a comment
3 2

0 1
# another
1 2
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed wrong: %v", g)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "x y\n",
		"one field":      "3 1\n0\n",
		"non-numeric":    "3 1\n0 z\n",
		"out of range":   "3 1\n0 5\n",
		"negative n":     "-1 0\n",
		"n past int32":   "4611686018427387904 0\n",
		"count mismatch": "3 2\n0 1\n",
		"extra edges":    "3 1\n0 1\n1 2\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestReadEmptyGraph(t *testing.T) {
	g, err := Read(strings.NewReader("0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph parse wrong: %v", g)
	}
}

func TestWriteFormat(t *testing.T) {
	g := gen.Path(3)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := "3 2\n0 1\n1 2\n"
	if buf.String() != want {
		t.Fatalf("Write output %q, want %q", buf.String(), want)
	}
}
