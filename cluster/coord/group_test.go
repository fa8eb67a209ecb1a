package coord

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"fastbfs/graph/gen"
)

// TestSettle pins a replica group's round decision, one row per typed
// outcome. Rows compare the whole outcome: the served response, every
// replica marked dead and why, the counters, hedgeWin and the error.
func TestSettle(t *testing.T) {
	resps := make([]*ExpandResponse, 4)
	for u := range resps {
		resps[u] = &ExpandResponse{Shard: uint32(u)}
	}
	ok := func(u int, crc uint32) groupReply { return groupReply{u: u, resp: resps[u], crc: crc} }
	fail := func(u int, err error) groupReply {
		return groupReply{u: u, err: fmt.Errorf("%w: replica %d", err, u)}
	}
	type dead struct {
		u   int
		why error
	}
	for _, tc := range []struct {
		name           string
		live           []int
		replies        []groupReply
		hedged, audit  bool
		best           int // index into resps, -1 for none
		dead           []dead
		failovers, div int
		hedgeWin       bool
		err            error
	}{
		{name: "fenced wins over a success",
			live: []int{0, 1, 2}, replies: []groupReply{ok(0, 7), fail(1, ErrFenced), fail(2, errShardDead)},
			hedged: true, audit: true, best: -1, err: ErrFenced},
		{name: "first success in arrival order",
			live: []int{0, 1}, replies: []groupReply{ok(1, 7), ok(0, 7)}, audit: true, best: 1},
		{name: "failed sibling fails over",
			live: []int{0, 1}, replies: []groupReply{fail(0, errShardDead), ok(1, 7)}, audit: true, best: 1,
			dead: []dead{{0, errShardDead}}, failovers: 1},
		{name: "minority outvoted at R=3",
			live: []int{0, 1, 2}, replies: []groupReply{ok(0, 7), ok(1, 9), ok(2, 7)}, audit: true, best: 0,
			dead: []dead{{1, ErrDiverged}}, div: 1},
		{name: "minority first still outvoted",
			live: []int{0, 1, 2}, replies: []groupReply{ok(1, 9), ok(0, 7), ok(2, 7)}, audit: true, best: 0,
			dead: []dead{{1, ErrDiverged}}, div: 1},
		{name: "no quorum at R=2",
			live: []int{0, 1}, replies: []groupReply{ok(0, 7), ok(1, 9)}, audit: true, best: -1, err: ErrDiverged},
		{name: "three-way split",
			live: []int{0, 1, 2}, replies: []groupReply{ok(0, 7), ok(1, 8), ok(2, 9)}, audit: true, best: -1, err: ErrDiverged},
		{name: "audit off serves the first success",
			live: []int{0, 1}, replies: []groupReply{ok(0, 7), ok(1, 9)}, best: 0},
		{name: "hedged straggler with a sibling success",
			live: []int{0, 1}, replies: []groupReply{ok(0, 7)}, hedged: true, audit: true, best: 0,
			dead: []dead{{1, errHedged}}, failovers: 1, hedgeWin: true},
		{name: "hedged straggler without a sibling success",
			live: []int{0, 1, 2}, replies: []groupReply{ok(0, 7), ok(1, 9)}, hedged: true, audit: true, best: -1,
			dead: []dead{{2, errHedged}}, failovers: 1, err: ErrDiverged},
		{name: "restartable",
			live: []int{0, 1, 2}, replies: []groupReply{fail(0, errShardDead), fail(1, errEpochRestart), fail(2, errShardDead)},
			audit: true, best: -1, dead: []dead{{0, errShardDead}, {2, errShardDead}}, failovers: 2, err: errEpochRestart},
		{name: "all dead",
			live: []int{0, 1}, replies: []groupReply{fail(0, errShardDead), fail(1, errShardDead)},
			audit: true, best: -1, dead: []dead{{0, errShardDead}, {1, errShardDead}}, err: errShardDead},
		{name: "corrupt reply fails over",
			live: []int{0, 1, 2}, replies: []groupReply{fail(1, ErrWire), ok(0, 7), ok(2, 7)}, audit: true, best: 0,
			dead: []dead{{1, ErrWire}}, failovers: 1},
		{name: "corrupt reply with no success fails the round",
			live: []int{0, 1}, replies: []groupReply{fail(0, errShardDead), fail(1, ErrWire)},
			audit: true, best: -1, err: ErrWire},
		{name: "corrupt reply at R=1",
			live: []int{3}, replies: []groupReply{fail(3, ErrWire)}, audit: true, best: -1, err: ErrWire},
		{name: "context error ends the round",
			live: []int{0, 1}, replies: []groupReply{ok(0, 7), fail(1, context.Canceled)}, audit: true, best: -1,
			err: context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := settle(tc.live, tc.replies, tc.hedged, tc.audit)
			var best *ExpandResponse
			if tc.best >= 0 {
				best = resps[tc.best]
			}
			if o.best != best {
				t.Errorf("best = %v, want %v", o.best, best)
			}
			if (o.err == nil) != (tc.err == nil) || !errors.Is(o.err, tc.err) {
				t.Errorf("err = %v, want %v", o.err, tc.err)
			}
			if len(o.dead) != len(tc.dead) {
				t.Errorf("dead = %v, want %v", o.dead, tc.dead)
			} else {
				for i, d := range tc.dead {
					if o.dead[i].u != d.u || !errors.Is(o.dead[i].err, d.why) {
						t.Errorf("dead[%d] = replica %d (%v), want replica %d (%v)", i, o.dead[i].u, o.dead[i].err, d.u, d.why)
					}
				}
			}
			if o.failovers != tc.failovers || o.divergences != tc.div || o.hedgeWin != tc.hedgeWin {
				t.Errorf("failovers %d, divergences %d, hedgeWin %v; want %d, %d, %v",
					o.failovers, o.divergences, o.hedgeWin, tc.failovers, tc.div, tc.hedgeWin)
			}
		})
	}
}

// corruptBodies returns a handler that flips one byte of every 200 reply
// inner sends to a request whose path ends in path, counting the flips.
func corruptBodies(inner http.Handler, path string, flips *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, path) {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && len(body) > 0 {
			body[len(body)/2] ^= 0x40
			flips.Add(1)
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestCorruptReplyFailsOver: with R=3 and the audit on, one replica
// whose replies fail their wire checksum is a failed replica, not a
// failed query. Its siblings answer, the query's depths are exact, and
// the corrupt replica counts as a failover, not a divergence (nothing
// it sent was decodable, so nothing was outvoted). depthsGroup asks
// replica 0 first, so the depths case corrupts that one. At R=1 the
// same corruption has no sibling to fail over to and still fails the
// query with ErrWire.
func TestCorruptReplyFailsOver(t *testing.T) {
	g, err := gen.RMAT(gen.Graph500Params(9, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := serialDepths(t, g, 1)
	for _, tc := range []struct {
		name     string
		replicas int
		victim   int
		path     string
	}{
		{"expand", 3, 1, "/shard/expand"},
		{"depths", 3, 0, "/shard/depths"},
		{"expand without a sibling", 1, 0, "/shard/expand"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newTestCluster(t, g, 2, tc.replicas, nil, nil)
			cl.cfg.AuditReplicas = true
			var flips atomic.Int64
			p := cl.proxies[tc.victim]
			p.inner = corruptBodies(p.inner, tc.path, &flips)
			res, err := cl.open(t).Run(context.Background(), 1)
			if flips.Load() == 0 {
				t.Fatalf("vacuous: no %s reply was corrupted", tc.path)
			}
			if tc.replicas == 1 {
				if !errors.Is(err, ErrWire) {
					t.Fatalf("corrupt reply with no sibling: err = %v, want ErrWire", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("one corrupt replica failed the query its siblings answered: %v", err)
			}
			assertExactDepths(t, res, want)
			if res.Failovers < 1 || res.Divergences != 0 || res.EpochRestarts != 0 {
				t.Fatalf("failovers %d, divergences %d, epoch restarts %d; want >= 1, 0, 0",
					res.Failovers, res.Divergences, res.EpochRestarts)
			}
		})
	}
}
