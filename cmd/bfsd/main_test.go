package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

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

// drainServer is an http.Server answering "ok" with a freshConns hook.
type drainServer struct {
	addr   string
	conns  *freshConns
	server *http.Server
	served chan error
}

func startDrainServer(t *testing.T) *drainServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &drainServer{addr: ln.Addr().String(), conns: newFreshConns(), served: make(chan error, 1)}
	d.server = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "ok")
		}),
		ConnState: d.conns.track,
	}
	go func() { d.served <- d.server.Serve(ln) }()
	return d
}

// waitFresh waits until n connections are tracked as new.
func (d *drainServer) waitFresh(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		d.conns.mu.Lock()
		got := len(d.conns.conns)
		d.conns.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fresh connections tracked, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// shutdown drains as bfsd does and returns how long it took. It may run
// on any goroutine.
func (d *drainServer) shutdown() (time.Duration, error) {
	start := time.Now()
	d.conns.drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.server.Shutdown(ctx); err != nil {
		return 0, fmt.Errorf("shutdown: %v", err)
	}
	took := time.Since(start)
	if err := <-d.served; err != http.ErrServerClosed {
		return 0, fmt.Errorf("Serve returned %v", err)
	}
	return took, nil
}

// TestDrainClosesFreshConns: a connection that was accepted but never
// sent a request must not hold a drain. http.Server.Shutdown alone waits
// 5 s for such a connection; with freshConns closing it after its
// grace, the drain takes well under a second, and a request on a used
// connection is still answered first.
func TestDrainClosesFreshConns(t *testing.T) {
	d := startDrainServer(t)
	resp, err := http.Get("http://" + d.addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	idle, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	d.waitFresh(t, 1)
	took, err := d.shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if took >= time.Second {
		t.Fatalf("drain took %v with one idle connection, want < 1s", took)
	}
}

// TestDrainServesRequestOnFreshConn: a request written onto a freshly
// dialed connection just before the drain starts is answered. The
// server has not read it yet, so the connection is still new when the
// drain begins; closing it then would fail a request that a client
// transport does not retry (the connection was never reused).
func TestDrainServesRequestOnFreshConn(t *testing.T) {
	d := startDrainServer(t)
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d.waitFresh(t, 1)
	if _, err := io.WriteString(c, "GET / HTTP/1.1\r\nHost: bfsd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	type result struct {
		took time.Duration
		err  error
	}
	done := make(chan result, 1)
	go func() {
		took, err := d.shutdown()
		done <- result{took, err}
	}()

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("request sent before the drain got no answer: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("answer %d %q (%v), want 200 \"ok\"", resp.StatusCode, body, err)
	}
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	} else if r.took >= time.Second {
		t.Fatalf("drain took %v, want < 1s", r.took)
	}
}
