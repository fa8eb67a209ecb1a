package graph

import (
	"fmt"
	"math"
)

// Stats summarizes the structure of a graph. Depth statistics refer to a
// BFS from vertex 0 (or the first non-isolated vertex) and approximate
// the paper's "Depth" column of Table II.
type Stats struct {
	Vertices     int
	Edges        int64
	MinDegree    int
	MaxDegree    int
	MeanDegree   float64
	DegreeStdDev float64
	Isolated     int // vertices with no out-edges
}

// ComputeStats scans the graph once and returns degree statistics.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	s := Stats{Vertices: n, Edges: g.NumEdges(), MinDegree: math.MaxInt}
	if n == 0 {
		s.MinDegree = 0
		return s
	}
	var sum, sumSq float64
	for v := 0; v < n; v++ {
		d := g.Degree(uint32(v))
		if d == 0 {
			s.Isolated++
		}
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		sum += float64(d)
		sumSq += float64(d) * float64(d)
	}
	s.MeanDegree = sum / float64(n)
	variance := sumSq/float64(n) - s.MeanDegree*s.MeanDegree
	if variance > 0 {
		s.DegreeStdDev = math.Sqrt(variance)
	}
	return s
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("V=%d E=%d deg[min=%d mean=%.2f max=%d sd=%.2f] isolated=%d",
		s.Vertices, s.Edges, s.MinDegree, s.MeanDegree, s.MaxDegree, s.DegreeStdDev, s.Isolated)
}

// BFSDepth runs a serial BFS from source and returns the eccentricity
// (maximum finite depth) and the number of reached vertices. It is the
// reference used to report the "Depth" column of Table II analogues.
func BFSDepth(g *Graph, source uint32) (depth int, reached int) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]uint32, 0, 1024)
	queue = append(queue, source)
	dist[source] = 0
	reached = 1
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if int(du) > depth {
			depth = int(du)
		}
		for _, v := range g.Neighbors1(u) {
			if dist[v] < 0 {
				dist[v] = du + 1
				reached++
				queue = append(queue, v)
			}
		}
	}
	return depth, reached
}

// Probe is the outcome of a level-bounded serial BFS: the per-level
// frontier and examined-edge profile the auto-tuner feeds to the
// analytical model (model.PredictDirections replays the α/β switch rule
// over exactly this shape).
type Probe struct {
	// Frontier[l] is the number of vertices expanded at level l
	// (Frontier[0] is 1, the source); Edges[l] is the adjacency entries
	// their expansion examined.
	Frontier []int64
	Edges    []int64
	// Visited and EdgesSeen total the profile.
	Visited   int64
	EdgesSeen int64
	// Complete reports that the traversal exhausted its frontier within
	// the level bound — the profile is the whole reachable component.
	Complete bool
}

// ProbeBFS runs a serial BFS from source for at most maxLevels levels
// (maxLevels <= 0 removes the bound) and returns the per-level profile.
// It allocates one int32 per vertex and touches only the edges of the
// levels it expands, so a bounded probe on a huge graph costs a few
// frontier expansions, not a full traversal.
func ProbeBFS(g *Graph, source uint32, maxLevels int) Probe {
	var p Probe
	n := g.NumVertices()
	if n == 0 || int(source) >= n {
		p.Complete = true
		return p
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	frontier := []uint32{source}
	dist[source] = 0
	for level := 0; len(frontier) > 0; level++ {
		if maxLevels > 0 && level >= maxLevels {
			return p // bounded: profile covers the expanded prefix only
		}
		var edges int64
		var next []uint32
		for _, u := range frontier {
			adj := g.Neighbors1(u)
			edges += int64(len(adj))
			for _, v := range adj {
				if dist[v] < 0 {
					dist[v] = int32(level + 1)
					next = append(next, v)
				}
			}
		}
		p.Frontier = append(p.Frontier, int64(len(frontier)))
		p.Edges = append(p.Edges, edges)
		p.Visited += int64(len(frontier))
		p.EdgesSeen += edges
		frontier = next
	}
	p.Complete = true
	return p
}

// LargestReach returns a source vertex whose BFS reaches the most
// vertices among `tries` deterministic candidates, along with the reach.
// Generators with isolated vertices (R-MAT) use it to pick good roots.
func LargestReach(g *Graph, tries int) (source uint32, reached int) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0
	}
	if tries < 1 {
		tries = 1
	}
	step := n / tries
	if step == 0 {
		step = 1
	}
	for c := 0; c < n && tries > 0; c += step {
		if g.Degree(uint32(c)) == 0 {
			continue
		}
		tries--
		_, r := BFSDepth(g, uint32(c))
		if r > reached {
			reached, source = r, uint32(c)
		}
		if reached > n/2 {
			break
		}
	}
	return source, reached
}
