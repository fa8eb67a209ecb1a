package gen

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fastbfs/graph"
)

// Spec is a parsed generator spec, kind:key=value,... such as
// rmat:scale=14,ef=16 or grid:rows=50,cols=50. Keys left out take their
// defaults from specKeys. -graph in bfsd, bfsrun and graphgen takes a
// spec wherever it takes a CSR path.
type Spec struct {
	text, kind                                  string
	n, degree, scale, ef, rows, cols, shortcuts int
	rewire                                      float64
	seed                                        uint64
}

// specKeys is the one table of spec keys: each key's default, in spec
// syntax, and the parser that range-checks and stores its value.
var specKeys = map[string]struct {
	def string
	set func(s *Spec, v string) error
}{
	"n":         {"1048576", intKey(func(s *Spec) *int { return &s.n }, 1, graph.MaxVertices)},
	"degree":    {"16", intKey(func(s *Spec) *int { return &s.degree }, 0, math.MaxInt32)},
	"scale":     {"20", intKey(func(s *Spec) *int { return &s.scale }, 1, 30)},
	"ef":        {"16", intKey(func(s *Spec) *int { return &s.ef }, 1, math.MaxInt32)},
	"rows":      {"1024", intKey(func(s *Spec) *int { return &s.rows }, 1, graph.MaxVertices)},
	"cols":      {"1024", intKey(func(s *Spec) *int { return &s.cols }, 1, graph.MaxVertices)},
	"shortcuts": {"0", intKey(func(s *Spec) *int { return &s.shortcuts }, 0, 1_000_000)},
	"rewire": {"0.1", func(s *Spec, v string) (err error) {
		if s.rewire, err = strconv.ParseFloat(v, 64); err != nil || !(s.rewire >= 0 && s.rewire <= 1) {
			return fmt.Errorf("want a probability in [0,1]")
		}
		return nil
	}},
	"seed": {"1", func(s *Spec, v string) (err error) {
		if s.seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return fmt.Errorf("want an unsigned integer")
		}
		return nil
	}},
}

func intKey(field func(*Spec) *int, lo, hi int) func(*Spec, string) error {
	return func(s *Spec, v string) error {
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil || x < int64(lo) || x > int64(hi) {
			return fmt.Errorf("want an integer in [%d,%d]", lo, hi)
		}
		*field(s) = int(x)
		return nil
	}
}

// specKinds maps each kind to its keys, in usage order, its vertex and
// edge counts (checked before anything is allocated), and the
// constructor it calls.
var specKinds = map[string]struct {
	keys  []string
	size  func(s *Spec) (vertices, edges float64)
	build func(s *Spec) (*graph.Graph, error)
}{
	"ur": {[]string{"n", "degree", "seed"}, perVertex(1),
		func(s *Spec) (*graph.Graph, error) { return UniformRandom(s.n, s.degree, s.seed) }},
	"random": {[]string{"n", "degree", "seed"}, perVertex(1),
		func(s *Spec) (*graph.Graph, error) { return RandomEdges(s.n, int64(s.n)*int64(s.degree), s.seed) }},
	"rmat": {[]string{"scale", "ef", "seed"},
		func(s *Spec) (float64, float64) { return math.Ldexp(1, s.scale), math.Ldexp(float64(s.ef), s.scale) },
		func(s *Spec) (*graph.Graph, error) { return RMAT(Graph500Params(s.scale, s.ef), s.seed) }},
	"kron": {[]string{"scale", "ef", "seed"},
		func(s *Spec) (float64, float64) { return math.Ldexp(1, s.scale), math.Ldexp(float64(s.ef), s.scale+1) },
		func(s *Spec) (*graph.Graph, error) { return Kronecker(s.scale, s.ef, s.seed) }},
	"grid": {[]string{"rows", "cols", "shortcuts", "seed"},
		func(s *Spec) (float64, float64) {
			v := float64(s.rows) * float64(s.cols)
			return v, v * (4 + float64(s.shortcuts)/500)
		},
		func(s *Spec) (*graph.Graph, error) { return Grid2D(s.rows, s.cols, s.shortcuts, s.seed) }},
	"pa": {[]string{"n", "degree", "seed"}, perVertex(2),
		func(s *Spec) (*graph.Graph, error) { return PreferentialAttachment(s.n, s.degree, s.seed) }},
	"stress": {[]string{"n", "degree", "seed"}, perVertex(1),
		func(s *Spec) (*graph.Graph, error) { return StressBipartite(s.n, s.degree, s.seed) }},
	"mesh": {[]string{"n"},
		func(s *Spec) (float64, float64) { return float64(s.n), 6 * float64(s.n) },
		func(s *Spec) (*graph.Graph, error) {
			d := 1 // the smallest cube with at least n vertices
			for d*d*d < s.n {
				d++
			}
			return BandedMesh(d, d, d)
		}},
	"smallworld": {[]string{"n", "degree", "rewire", "seed"}, perVertex(1),
		func(s *Spec) (*graph.Graph, error) { return SmallWorld(s.n, s.degree, s.rewire, s.seed) }},
}

// perVertex sizes a kind with n vertices and k·n·degree edges.
func perVertex(k float64) func(s *Spec) (float64, float64) {
	return func(s *Spec) (float64, float64) { return float64(s.n), k * float64(s.n) * float64(s.degree) }
}

// IsSpec reports whether source is a generator spec rather than a file
// path: it starts with a known kind followed by ':'.
func IsSpec(source string) bool {
	kind, _, ok := strings.Cut(source, ":")
	_, known := specKinds[kind]
	return ok && known
}

// ParseSpec parses a generator spec. An unknown kind, an unknown or
// repeated key, a malformed or out-of-range value, and a graph past
// graph.MaxVertices or graph.MaxStreamEdges are errors that name the
// spec. It allocates nothing in proportion to the graph, so any input
// is safe.
func ParseSpec(text string) (Spec, error) {
	fail := func(format string, a ...any) (Spec, error) {
		return Spec{}, fmt.Errorf("graph spec %q: "+format, append([]any{text}, a...)...)
	}
	if !IsSpec(text) {
		return fail("want kind:key=value,... with kind one of %s", strings.Join(kindNames(), ", "))
	}
	kind, args, _ := strings.Cut(text, ":")
	k := specKinds[kind]
	given := map[string]string{}
	for _, kv := range strings.Split(args, ",") {
		key, val, ok := strings.Cut(kv, "=")
		switch _, dup := given[key]; {
		case kv == "" && args == "": // "kind:" sets no key
		case !ok:
			return fail("%q is not key=value", kv)
		case !slices.Contains(k.keys, key):
			return fail("%s takes no key %q (keys: %s)", kind, key, strings.Join(k.keys, ", "))
		case dup:
			return fail("key %q given twice", key)
		default:
			given[key] = val
		}
	}
	s := Spec{text: text, kind: kind}
	for _, key := range k.keys {
		val, ok := given[key]
		if !ok {
			val = specKeys[key].def
		}
		if err := specKeys[key].set(&s, val); err != nil {
			return fail("%s=%q: %v", key, val, err)
		}
	}
	if v, e := k.size(&s); v > graph.MaxVertices || e > graph.MaxStreamEdges {
		return fail("%.0f vertices and %.0f edges exceed graph.MaxVertices or graph.MaxStreamEdges", v, e)
	}
	return s, nil
}

// Build generates the spec's graph with the constructor its kind names.
func (s Spec) Build() (*graph.Graph, error) {
	g, err := specKinds[s.kind].build(&s)
	if err != nil {
		return nil, fmt.Errorf("graph spec %q: %w", s.text, err)
	}
	return g, nil
}

// Open returns the graph a -graph value names: generated when source is
// a spec, otherwise the CSR file at that path (mapped read-only when
// mmap is set).
func Open(source string, mmap bool) (*graph.Graph, error) {
	switch {
	case IsSpec(source):
		s, err := ParseSpec(source)
		if err != nil {
			return nil, err
		}
		return s.Build()
	case mmap:
		return graph.LoadMmap(source)
	default:
		return graph.Load(source)
	}
}

// SpecUsage lists every kind with its keys at their defaults, one per
// line, for a CLI's -graph help.
func SpecUsage() string {
	var b strings.Builder
	for _, kind := range kindNames() {
		sep := ":"
		b.WriteString("\n  " + kind)
		for _, key := range specKinds[kind].keys {
			b.WriteString(sep + key + "=" + specKeys[key].def)
			sep = ","
		}
	}
	return b.String()
}

func kindNames() []string {
	names := make([]string, 0, len(specKinds))
	for kind := range specKinds {
		names = append(names, kind)
	}
	sort.Strings(names)
	return names
}
