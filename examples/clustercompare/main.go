// Cluster comparison: the paper's headline economics argument (§I) —
// measure this machine's single-node BFS rate on a Graph500 workload,
// then project how many era-2010 cluster nodes it replaces and what the
// modeled dual-socket Nehalem of the paper replaces (the paper cites a
// 256-node system from the November 2010 Graph500 list).
package main

import (
	"fmt"
	"log"

	"fastbfs/bfs"
	"fastbfs/cluster"
	"fastbfs/graph500"
	"fastbfs/model"
)

func main() {
	// Measure this host on a small Graph500 problem.
	spec := graph500.Spec{Scale: 18, EdgeFactor: 16, Roots: 4}
	rep, err := graph500.Run(spec, bfs.Default(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("this host: %s\n\n", rep)

	w := cluster.Workload{Edges: rep.Edges, Depth: 8}

	// What does a 2010-era cluster node achieve? Distributed BFS codes
	// of the Nov 2010 list averaged tens of MTEPS per node after
	// communication overheads.
	const eraNodeMTEPS = 20e6

	fmt.Println("nodes of an era-2010 cluster (20 MTEPS/node, DDR IB) needed to match:")
	for _, tgt := range []struct {
		name string
		teps float64
	}{
		{"this host (measured)", rep.HarmonicMeanTEPS},
		{"paper's dual-socket Nehalem (modeled)", paperRate()},
	} {
		nodes, err := cluster.NodesToMatch(cluster.Era2010Cluster(eraNodeMTEPS), w, tgt.teps, 1<<20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-40s %8.1f MTEPS  ->  ~%d nodes\n", tgt.name, tgt.teps/1e6, nodes)
	}
	fmt.Println("\n(the paper reports its single node matching a 256-node system on the Nov 2010 Graph500 list)")

	// And the break-even view: cluster rate as node count grows.
	fmt.Println("\nprojected era-2010 cluster scaling (20 MTEPS/node):")
	for _, n := range []int{1, 16, 64, 256, 1024} {
		c := cluster.Era2010Cluster(eraNodeMTEPS)
		c.Nodes = n
		pr, err := cluster.Predict(c, w)
		if err != nil {
			log.Fatal(err)
		}
		bound := "compute-bound"
		if pr.NetworkBound {
			bound = "network-bound"
		}
		fmt.Printf("  %5d nodes: %9.1f MTEPS  (%s)\n", n, pr.TEPS/1e6, bound)
	}
}

// paperRate returns the analytical model's dual-socket prediction for
// the paper's worked R-MAT example (≈850-900 MTEPS; the paper measured
// 820 and reported ~1000 on larger R-MAT graphs).
func paperRate() float64 {
	pr, err := model.Predict(model.NehalemX5570(), model.WorkedExampleWorkload(), 2)
	if err != nil {
		log.Fatal(err)
	}
	return pr.EdgesPerSec
}
