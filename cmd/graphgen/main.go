// Command graphgen generates a synthetic graph and writes it in the
// fastbfs binary CSR format. The graph is a generator spec,
// kind:key=value,...; keys left out take their defaults (graphgen -h
// lists every kind with them).
//
// Usage:
//
//	graphgen -graph ur:n=1048576,degree=16 -o ur.csr
//	graphgen -graph rmat:scale=20,ef=16 -o rmat.csr
//	graphgen -graph grid:rows=1024,cols=1024 -o road.csr
//	graphgen -graph pa:n=100000,degree=8 -o social.csr
//	graphgen -graph stress:n=65536,degree=8 -o stress.csr
//	graphgen -graph kron:scale=20,ef=16 -o toy.csr
//	graphgen -graph rmat.csr -symmetrize -o rmat-sym.csr
package main

import (
	"flag"
	"fmt"
	"os"

	"fastbfs/graph"
	"fastbfs/graph/gen"
)

func main() {
	source := flag.String("graph", "", "generator spec kind:key=value,... or a CSR file (required); kinds and defaults:"+gen.SpecUsage())
	symmetrize := flag.Bool("symmetrize", false, "add every reverse edge (serve with bfsd -symmetric)")
	out := flag.String("o", "", "output path (required)")
	flag.Parse()

	if *source == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -graph and -o are required")
		os.Exit(2)
	}
	g, err := gen.Open(*source, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	if *symmetrize {
		g = g.Symmetrize()
	}
	if err := g.Save(*out); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: saving: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %s\n", *out, graph.ComputeStats(g))
}
