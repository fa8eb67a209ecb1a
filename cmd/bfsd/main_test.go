package main

import "testing"

// TestSplitGraphFlag pins how a -graph value splits into a served name
// and a source. Paths and name=path split as they always have, since
// scripts start bfsd with both forms; a spec's own '=' never reads as a
// name.
func TestSplitGraphFlag(t *testing.T) {
	for _, c := range []struct{ flag, name, source string }{
		{"g.csr", "g", "g.csr"},
		{"/data/graphs/rmat20.csr", "rmat20", "/data/graphs/rmat20.csr"},
		{"noext", "noext", "noext"},
		{"g=/data/x.csr", "g", "/data/x.csr"},
		{"g=rel/x.csr", "g", "rel/x.csr"},
		{"=x.csr", "", "x.csr"},
		{"/tmp/a=b.csr", "/tmp/a", "b.csr"},
		{"rmat:scale=14,ef=16", "default", "rmat:scale=14,ef=16"},
		{"rmat:", "default", "rmat:"},
		{"grid:rows=50,cols=50,shortcuts=0", "default", "grid:rows=50,cols=50,shortcuts=0"},
		{"big=rmat:scale=20", "big", "rmat:scale=20"},
		{"g=grid:rows=2,cols=3", "g", "grid:rows=2,cols=3"},
		{"bogus:x=1", "bogus:x=1", "bogus:x=1"}, // unknown kind: a path
		{"rmat", "rmat", "rmat"},                // no ':': a path
	} {
		name, source := splitGraphFlag(c.flag)
		if name != c.name || source != c.source {
			t.Errorf("splitGraphFlag(%q) = (%q, %q), want (%q, %q)", c.flag, name, source, c.name, c.source)
		}
	}
}
