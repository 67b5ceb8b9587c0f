package graph

// Unreachable is the distance value reported for vertices that a traversal
// cannot reach.
const Unreachable = -1

// BFSScratch is the repository's one distance breadth-first search: a
// reusable workspace for many radius-bounded searches from many sources.
// Between runs every distance entry is Unreachable, and Run resets only the
// entries the previous run set, so a run costs its ball, not the graph.
// The zero value is ready to use; the distance array grows to the largest
// graph searched. A scratch must not be shared between goroutines.
type BFSScratch struct {
	dist  []int
	queue []int32 // the last run's reached vertices, in BFS order
}

// Run searches from src in the subgraph induced by the vertices with
// alive[v] == true (nil means all vertices), exploring vertices at distance
// at most radius (a negative radius means unbounded). It returns the
// reached vertices in BFS order, so in nondecreasing distance with src
// first and a farthest vertex last; a dead src reaches nothing. The slice
// and Dist are valid until the next Run and must not be modified.
func (s *BFSScratch) Run(g Interface, src int, alive []bool, radius int) []int32 {
	for _, v := range s.queue {
		s.dist[v] = Unreachable
	}
	s.queue = s.queue[:0]
	if n := g.N(); len(s.dist) < n {
		s.dist = make([]int, n)
		for i := range s.dist {
			s.dist[i] = Unreachable
		}
		s.queue = make([]int32, 0, 64)
	}
	if alive != nil && !alive[src] {
		return s.queue
	}
	s.dist[src] = 0
	s.queue = append(s.queue, int32(src))
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		du := s.dist[u]
		if radius >= 0 && du >= radius {
			break // BFS order: every later vertex is at the radius too
		}
		for _, w := range g.Neighbors(int(u)) {
			if s.dist[w] != Unreachable || (alive != nil && !alive[w]) {
				continue
			}
			s.dist[w] = du + 1
			s.queue = append(s.queue, w)
		}
	}
	return s.queue[:len(s.queue):len(s.queue)]
}

// Dist returns v's distance from the last run's source, or Unreachable if
// that run did not reach v.
func (s *BFSScratch) Dist(v int) int { return s.dist[v] }

// distances runs one search on a fresh scratch and returns its distance
// array, which the caller then owns.
func distances(g Interface, src int, alive []bool, radius int) []int {
	var s BFSScratch
	s.Run(g, src, alive, radius)
	return s.dist
}

// BFS returns the vector of hop distances from src in g, with Unreachable
// (-1) for vertices in other connected components.
func BFS(g Interface, src int) []int { return distances(g, src, nil, -1) }

// BFS returns the vector of hop distances from src (see the package
// function BFS).
func (g *Graph) BFS(src int) []int { return BFS(g, src) }

// BFSWithin returns hop distances from src, exploring only vertices at
// distance at most radius. Vertices beyond the radius report Unreachable.
// A negative radius means unbounded.
func BFSWithin(g Interface, src, radius int) []int { return distances(g, src, nil, radius) }

// BFSWithin returns radius-bounded hop distances from src (see the package
// function BFSWithin).
func (g *Graph) BFSWithin(src, radius int) []int { return BFSWithin(g, src, radius) }

// BFSRestricted returns hop distances from src in the subgraph induced by
// the vertices with alive[v] == true. src itself must be alive; otherwise
// every entry is Unreachable. A negative radius means unbounded.
//
// This is the traversal the per-phase algorithms use: the "current graph"
// G_t of Elkin–Neiman is exactly G restricted to the not-yet-clustered
// vertices.
func BFSRestricted(g Interface, src int, alive []bool, radius int) []int {
	return distances(g, src, alive, radius)
}

// BFSRestricted returns hop distances under an alive mask (see the package
// function BFSRestricted).
func (g *Graph) BFSRestricted(src int, alive []bool, radius int) []int {
	return BFSRestricted(g, src, alive, radius)
}

// Eccentricity returns the maximum distance from v to any vertex reachable
// from it, restricted to the optional alive mask.
func Eccentricity(g Interface, v int, alive []bool) int {
	var s BFSScratch
	return s.farthest(g, v, alive)
}

// farthest runs an unbounded search from src and returns the distance of
// its last reached vertex, the eccentricity of src; 0 if src is dead.
func (s *BFSScratch) farthest(g Interface, src int, alive []bool) int {
	reached := s.Run(g, src, alive, -1)
	if len(reached) == 0 {
		return 0
	}
	return s.dist[reached[len(reached)-1]]
}

// Eccentricity returns the maximum distance from v to any reachable vertex
// (see the package function Eccentricity).
func (g *Graph) Eccentricity(v int, alive []bool) int { return Eccentricity(g, v, alive) }
