package coord

import (
	"errors"
	"fmt"
	"slices"
)

// groupReply is one replica's answer to a round message: u is the
// replica's flat index into Config.Shards, crc the audit hash of its
// payload (see auditCRC). In an outcome's dead list, err is the reason.
type groupReply struct {
	u    int
	resp *ExpandResponse
	crc  uint32
	err  error
}

// outcome is a replica group's decision for one round: best is served
// when err is nil; dead lists the replicas that leave lockstep, each
// with the reason, in the order they were judged.
type outcome struct {
	best        *ExpandResponse
	dead        []groupReply
	failovers   int
	divergences int
	hedgeWin    bool
	err         error
}

// errHedged is the reason a straggler is abandoned when the hedge fires.
var errHedged = errors.New("overstayed the hedge budget")

// settle decides a group's round from the replies of its live replicas,
// in arrival order. hedged says the group stopped waiting before every
// live replica answered; audit enables the CRC quorum. The rules, in
// order:
//
//   - ErrFenced from any replica wins: nothing else is decided.
//   - Hedged: every unanswered live replica missed the round, so it is
//     dead and counts one failover, whatever the round's result.
//   - Audit, when more than one reply succeeded and they carry more than
//     one CRC: a strict majority is served and each minority replica is
//     dead with ErrDiverged; with no strict majority the result is
//     ErrDiverged (nothing trustworthy can be served).
//   - best is the first surviving success. Every other failed replica
//     (errShardDead, errEpochRestart, or an undecodable ErrWire reply)
//     is then dead and counts one failover. Any other error (a context
//     error) ends the round.
//   - No success: ErrWire is returned if a replica sent one; otherwise
//     the errShardDead replicas are dead, counted as failovers only when
//     a sibling is alive but stateless, and the result is
//     errEpochRestart (a fresh epoch can proceed) or errShardDead (the
//     caller degrades).
func settle(live []int, replies []groupReply, hedged, audit bool) outcome {
	var o outcome
	for _, r := range replies {
		if errors.Is(r.err, ErrFenced) {
			return outcome{err: r.err}
		}
	}
	for _, u := range live {
		if hedged && !slices.ContainsFunc(replies, func(r groupReply) bool { return r.u == u }) {
			o.dead = append(o.dead, groupReply{u: u, err: errHedged})
			o.failovers++
		}
	}

	counts := make(map[uint32]int, 2)
	succ := 0
	for _, r := range replies {
		if r.err == nil {
			counts[r.crc]++
			succ++
		}
	}
	split := audit && succ > 1 && len(counts) > 1
	var winner uint32
	if split {
		haveQuorum := false
		for crc, n := range counts {
			if 2*n > succ {
				winner, haveQuorum = crc, true
			}
		}
		if !haveQuorum {
			o.err = fmt.Errorf("%w: %d distinct answers among %d replicas, no quorum", ErrDiverged, len(counts), succ)
			return o
		}
		for _, r := range replies {
			if r.err == nil && r.crc != winner {
				o.dead = append(o.dead, groupReply{u: r.u, err: fmt.Errorf("%w: outvoted %d-to-%d", ErrDiverged, counts[winner], counts[r.crc])})
				o.divergences++
			}
		}
	}

	restartable := false
	var wire error
	for _, r := range replies {
		switch {
		case r.err == nil:
			if o.best == nil && (!split || r.crc == winner) {
				o.best = r.resp
			}
		case errors.Is(r.err, errEpochRestart):
			restartable = true
		case errors.Is(r.err, errShardDead):
		case errors.Is(r.err, ErrWire):
			if wire == nil {
				wire = r.err
			}
		default:
			o.best, o.err = nil, r.err
			return o
		}
	}
	if o.best != nil {
		for _, r := range replies {
			if r.err != nil {
				o.dead = append(o.dead, r)
				o.failovers++
			}
		}
		o.hedgeWin = hedged
		return o
	}
	if wire != nil {
		o.err = wire
		return o
	}
	for _, r := range replies {
		if errors.Is(r.err, errShardDead) {
			o.dead = append(o.dead, r)
			if restartable {
				o.failovers++
			}
		}
	}
	o.err = fmt.Errorf("%w: every replica", errShardDead)
	if restartable {
		o.err = fmt.Errorf("%w: live replicas but none hold the round's state", errEpochRestart)
	}
	return o
}
