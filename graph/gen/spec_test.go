package gen

import (
	"strconv"
	"strings"
	"testing"

	"fastbfs/graph"
)

// TestParseSpecMatchesConstructor: for every kind, the spec builds the
// graph its constructor builds from the same parameters, byte for byte.
// Keys left out take specKeys' defaults.
func TestParseSpecMatchesConstructor(t *testing.T) {
	cases := []struct {
		spec   string
		direct func() (*graph.Graph, error)
	}{
		{"ur:n=1000,degree=8,seed=42", func() (*graph.Graph, error) { return UniformRandom(1000, 8, 42) }},
		{"ur:n=500", func() (*graph.Graph, error) { return UniformRandom(500, 16, 1) }},
		{"random:n=1000,degree=5,seed=9", func() (*graph.Graph, error) { return RandomEdges(1000, 5000, 9) }},
		{"rmat:scale=10,ef=16,seed=5", func() (*graph.Graph, error) { return RMAT(Graph500Params(10, 16), 5) }},
		{"rmat:scale=9", func() (*graph.Graph, error) { return RMAT(Graph500Params(9, 16), 1) }},
		{"kron:seed=3,ef=8,scale=9", func() (*graph.Graph, error) { return Kronecker(9, 8, 3) }},
		{"grid:rows=20,cols=25,shortcuts=10,seed=4", func() (*graph.Graph, error) { return Grid2D(20, 25, 10, 4) }},
		{"grid:rows=50,cols=50", func() (*graph.Graph, error) { return Grid2D(50, 50, 0, 1) }},
		{"pa:n=300,degree=3,seed=6", func() (*graph.Graph, error) { return PreferentialAttachment(300, 3, 6) }},
		{"stress:n=400,degree=5,seed=7", func() (*graph.Graph, error) { return StressBipartite(400, 5, 7) }},
		{"mesh:n=1000", func() (*graph.Graph, error) { return BandedMesh(10, 10, 10) }},
		{"mesh:n=1001", func() (*graph.Graph, error) { return BandedMesh(11, 11, 11) }},
		{"smallworld:n=400,degree=6,rewire=0.2,seed=8", func() (*graph.Graph, error) { return SmallWorld(400, 6, 0.2, 8) }},
		{"smallworld:n=400,degree=6", func() (*graph.Graph, error) { return SmallWorld(400, 6, 0.1, 1) }},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if !IsSpec(c.spec) {
			t.Errorf("IsSpec(%q) = false", c.spec)
		}
		s, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.spec, err)
		}
		seen[s.kind] = true
		got, err := s.Build()
		if err != nil {
			t.Fatalf("%q: Build: %v", c.spec, err)
		}
		want, err := c.direct()
		if err != nil {
			t.Fatal(err)
		}
		if got.Checksum(nil) != want.Checksum(nil) || !equalGraphs(got, want) {
			t.Errorf("%q: graph differs from the direct constructor call", c.spec)
		}
		opened, err := Open(c.spec, false)
		if err != nil || opened.Checksum(nil) != want.Checksum(nil) {
			t.Errorf("Open(%q): graph differs from the direct constructor call (err %v)", c.spec, err)
		}
	}
	for kind := range specKinds {
		if !seen[kind] {
			t.Errorf("kind %q has no case", kind)
		}
	}
}

// TestParseSpecRejects: malformed and out-of-range specs are errors
// that name the spec, never panics, and nothing is generated for them.
func TestParseSpecRejects(t *testing.T) {
	for _, spec := range []string{
		"",
		"rmat",                   // no ':'
		":scale=14",              // no kind
		"RMAT:scale=14",          // kinds are lower case
		"rmatx:scale=14",         // unknown kind
		"rmat:scale",             // not key=value
		"rmat:scale=14,",         // empty pair
		"rmat:,scale=14",         // empty pair
		"rmat:scale=14,scale=15", // repeated key
		"rmat:n=100",             // key of another kind
		"rmat:bogus=1",           // unknown key
		"rmat:scale=",            // empty value
		"rmat:scale=x",           // not a number
		"rmat:scale=14.5",        // not an integer
		"rmat:scale=0x10",        // base prefixes are not accepted
		"rmat:scale=0",           // below range
		"rmat:scale=31",          // above range
		"rmat:scale=-1",
		"rmat:ef=0",
		"rmat:scale=30,ef=2048",              // 2^41 edges
		"rmat:scale=99999999999999999999999", // overflows int64
		"rmat:seed=-1",
		"rmat:seed=18446744073709551616", // overflows uint64
		"ur:n=0",
		"ur:n=2147483649", // past graph.MaxVertices
		"ur:degree=-1",
		"ur:n=2147483648,degree=2147483647", // past graph.MaxStreamEdges
		"random:n=2147483648,degree=1024",
		"kron:scale=30,ef=1024",
		"grid:rows=65536,cols=65537", // past graph.MaxVertices
		"grid:rows=0",
		"grid:shortcuts=-1",
		"grid:shortcuts=1000001",
		"pa:n=2147483648,degree=1000",
		"stress:degree=2147483648",
		"mesh:n=0",
		"mesh:seed=1",
		"smallworld:rewire=1.5",
		"smallworld:rewire=-0.1",
		"smallworld:rewire=NaN",
		"smallworld:rewire=Inf",
		"smallworld:rewire=x",
	} {
		s, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted: %+v", spec, s)
			continue
		}
		if !strings.Contains(err.Error(), "graph spec "+strconv.Quote(spec)) {
			t.Errorf("ParseSpec(%q): error %q does not name the spec", spec, err)
		}
	}
}

// TestSpecBuildErrors: parameters each in range that the constructor
// refuses together come back as errors naming the spec.
func TestSpecBuildErrors(t *testing.T) {
	for _, spec := range []string{
		"pa:n=10,degree=10",       // m must be < n
		"pa:degree=0",             // m must be >= 1
		"stress:n=1",              // two sides need two vertices
		"smallworld:n=5,degree=5", // k must be < n
		"mesh:n=2147483648",       // the cube past n exceeds MaxVertices
	} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), strconv.Quote(spec)) {
			t.Errorf("%q: Build error %v, want one naming the spec", spec, err)
		}
	}
}

func TestIsSpec(t *testing.T) {
	for source, want := range map[string]bool{
		"rmat:":             true,
		"rmat:scale=14":     true,
		"grid:rows=2":       true,
		"rmat:bogus":        true, // a spec, and ParseSpec says what is wrong with it
		"rmat":              false,
		"rmat.csr":          false,
		"/tmp/rmat:x.csr":   false,
		"C:\\graphs\\g.csr": false,
		"":                  false,
	} {
		if got := IsSpec(source); got != want {
			t.Errorf("IsSpec(%q) = %v, want %v", source, got, want)
		}
	}
}

// TestSpecUsageListsDefaults: the help text comes from the one table.
func TestSpecUsageListsDefaults(t *testing.T) {
	u := SpecUsage()
	for _, want := range []string{"rmat:scale=20,ef=16,seed=1", "grid:rows=1024,cols=1024,shortcuts=0,seed=1", "mesh:n=1048576"} {
		if !strings.Contains(u, want) {
			t.Errorf("SpecUsage() lacks %q:%s", want, u)
		}
	}
	for kind := range specKinds {
		if !strings.Contains(u, "\n  "+kind+":") {
			t.Errorf("SpecUsage() lacks kind %q", kind)
		}
	}
}

// FuzzParseSpec: no input panics, and an accepted spec is one IsSpec
// recognises. Nothing is built, so huge accepted specs cost nothing.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{"rmat:scale=14,ef=16", "grid:rows=50,cols=50,shortcuts=0", "smallworld:rewire=0.5", "ur:", "mesh:n=8", "rmat:scale=14,scale=1", "x:y"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if _, err := ParseSpec(spec); err == nil && !IsSpec(spec) {
			t.Fatalf("ParseSpec accepted %q, which IsSpec rejects", spec)
		}
	})
}
