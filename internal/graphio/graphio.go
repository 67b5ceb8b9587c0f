// Package graphio reads and writes graphs in the plain edge-list
// interchange format used by cmd/graphgen and accepted by cmd/netdecomp:
// a header line "n m" followed by m lines "u v" (0-based endpoints,
// whitespace separated, '#' comments and blank lines ignored).
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netdecomp/internal/graph"
)

// Write emits g in edge-list format. It accepts any read-only graph
// backend and streams the edges through graph.EdgeSeq, so no [][2]int edge
// list is materialized however large the graph.
func Write(w io.Writer, g graph.Interface) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), graph.EdgeCount(g)); err != nil {
		return err
	}
	for u, v := range graph.EdgeSeq(g) {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses an edge-list graph. The declared edge count is validated
// against the edges actually read (before deduplication).
func Read(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	var b *graph.Builder
	n := 0
	declared := -1
	read := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graphio: line %d: want two fields, got %q", line, text)
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %w", line, err)
		}
		c, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %w", line, err)
		}
		if b == nil {
			// Header.
			if a < 0 || c < 0 {
				return nil, fmt.Errorf("graphio: line %d: negative header %d %d", line, a, c)
			}
			if a > graph.MaxVertices {
				return nil, fmt.Errorf("graphio: line %d: %d vertices exceed the limit of %d", line, a, graph.MaxVertices)
			}
			n = a
			b = graph.NewBuilder(n)
			declared = c
			continue
		}
		if a < 0 || a >= n || c < 0 || c >= n {
			return nil, fmt.Errorf("graphio: line %d: edge {%d,%d} out of range [0,%d)", line, a, c, n)
		}
		b.AddEdge(a, c)
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graphio: empty input (missing header)")
	}
	if read != declared {
		return nil, fmt.Errorf("graphio: header declares %d edges, read %d", declared, read)
	}
	return b.Build(), nil
}
