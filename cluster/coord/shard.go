package coord

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math/bits"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"fastbfs/graph"
	"fastbfs/internal/faultinject"
)

// Shard is one worker of the distributed BFS: it owns the contiguous
// vertex range [Lo, Hi) of its graph and answers the coordinator's
// round protocol. All state transitions happen under one mutex — rounds
// are level-synchronous, so the shard is never asked to do two things
// at once by a healthy coordinator, and the lock makes a confused or
// retrying coordinator safe too.
//
// The round protocol is strictly sequenced per epoch: the shard tracks
// the next round it expects, replays its cached response for the
// immediately previous round (duplicate delivery), and rejects anything
// else with a typed sequencing error the coordinator resolves by
// restarting the epoch. When a checkpoint dir is configured every
// processed round is appended to the shard's round log and synced before
// the response leaves the shard, and the round's state is applied only
// once that succeeded, so a crash never loses a round the coordinator
// believes happened and a failed write never acknowledges one.
//
// A shard keeps only what it owns: the out-edges of [lo, hi), copied out
// of the graph at construction, and the depths of [lo, hi).
type Shard struct {
	id      int
	replica int
	shards  int
	lo, hi  uint32
	// offsets and nbrs are the owned CSR slice: the out-neighbors of
	// vertex lo+i are nbrs[offsets[i]:offsets[i+1]].
	offsets []int64
	nbrs    []uint32
	dir     string // checkpoint dir; "" disables persistence

	inj *faultinject.Plan
	seq faultinject.Sequencer

	mu     sync.Mutex
	epoch  uint64
	next   uint32 // next round expected within epoch
	depth  []int32
	resp   []byte // encoded response of round next-1
	fence  uint64 // highest fencing token admitted
	resets uint64 // round-0 epoch resets observed (fresh epochs + restarts)

	// The open round log and its length. nil means the next durable round
	// writes the whole log afresh.
	log     *os.File
	logSize int64

	// Per-round scratch, reused across rounds.
	claimed []uint32    // offsets claimed this round, ascending
	seen    []uint32    // discovery bitmap over every vertex of the graph
	dests   []*Frontier // one per destination shard, cut from seen
	rec     []byte      // this round's log record
}

// ErrRoundSequence is a shard's typed refusal of an out-of-sequence
// round message: wrong epoch, or a round that is neither the expected
// one nor the immediately previous (replayable) one. The coordinator
// treats it as "this shard lost state" and restarts the epoch.
var ErrRoundSequence = errors.New("coord: round out of sequence")

// ErrFenced is a shard's typed refusal of a request whose fencing token
// is lower than one it has already admitted: the sender is a deposed
// coordinator whose lease was taken over. Unlike ErrRoundSequence this
// is not a cue to restart the epoch — the sender must stop coordinating
// entirely.
var ErrFenced = errors.New("coord: request fenced off by a newer coordinator")

// NewShard builds the shard with id of shards over g, restoring state
// from ckptDir when a valid checkpoint for this partition exists. A
// missing or corrupt checkpoint is a fresh start (corruption is logged,
// never fatal: refusing to boot would turn one torn write into a
// permanently dead shard).
func NewShard(g *graph.Graph, id, shards int, ckptDir string, inj *faultinject.Plan) (*Shard, error) {
	return NewReplicaShard(g, id, 0, shards, ckptDir, inj)
}

// NewReplicaShard is NewShard with an explicit replica index inside the
// shard's group. The replica index is identity only — the partition
// range depends solely on the group id, so every replica of a group
// owns the same [lo, hi) and runs the identical round protocol. The
// shard copies out the owned part of g and keeps no reference to g.
func NewReplicaShard(g *graph.Graph, id, replica, shards int, ckptDir string, inj *faultinject.Plan) (*Shard, error) {
	if shards < 1 || id < 0 || id >= shards {
		return nil, fmt.Errorf("coord: shard %d of %d invalid", id, shards)
	}
	if replica < 0 {
		return nil, fmt.Errorf("coord: replica %d invalid", replica)
	}
	n := g.NumVertices()
	lo, hi := PartitionRange(n, shards, id)
	s := &Shard{
		id: id, replica: replica, shards: shards, lo: lo, hi: hi, dir: ckptDir, inj: inj,
		offsets: make([]int64, hi-lo+1),
		seen:    make([]uint32, frontierWords(0, uint32(n))),
		dests:   make([]*Frontier, shards),
	}
	if hi > lo {
		base := g.Offsets[lo]
		for i := range s.offsets {
			s.offsets[i] = g.Offsets[int(lo)+i] - base
		}
		s.nbrs = slices.Clone(g.Neighbors[base:g.Offsets[hi]])
	}
	for o := range s.dests {
		dlo, dhi := PartitionRange(n, shards, o)
		s.dests[o] = NewFrontier(0, 0, uint32(o), dlo, dhi)
	}
	if ckptDir != "" {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// restore loads the shard's state from its checkpoint dir: a round log,
// or a snapshot written by SaveCheckpoint, which the next round rewrites
// as a round log. A missing file is a fresh start, and so is a corrupt
// one or one for another partition.
func (s *Shard) restore() error {
	path := checkpointPath(s.dir)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(b, []byte(roundLogMagic)) {
		c, err := decodeCheckpoint(b)
		if err == nil && (c.Lo != s.lo || c.Hi != s.hi) {
			err = fmt.Errorf("%w: snapshot covers [%d,%d), partition is [%d,%d)", ErrCheckpoint, c.Lo, c.Hi, s.lo, s.hi)
		}
		if err != nil {
			log.Printf("shard %d: discarding checkpoint: %v", s.id, err)
			return nil
		}
		s.epoch, s.next, s.fence, s.depth, s.resp = c.Epoch, c.Round, c.Fence, c.Depth, c.Resp
		log.Printf("shard %d: restored snapshot epoch %d round %d fence %d", s.id, s.epoch, s.next, s.fence)
		return nil
	}
	rl, err := loadRoundLog(b, s.lo, s.hi)
	if err != nil {
		log.Printf("shard %d: discarding checkpoint: %v", s.id, err)
		return nil
	}
	s.epoch, s.next, s.fence, s.depth = rl.epoch, rl.next, rl.fence, rl.depth
	if s.next > 0 {
		s.resp = s.expand(s.epoch, s.next-1, rl.last)
	}
	// Appends continue after the valid prefix, cutting off a torn tail. If
	// the file cannot be reopened, the next round rewrites it whole.
	if err := s.openLog(int64(rl.size)); err != nil {
		log.Printf("shard %d: reopening round log: %v", s.id, err)
	}
	log.Printf("shard %d: restored round log epoch %d round %d fence %d", s.id, s.epoch, s.next, s.fence)
	return nil
}

// Range returns the shard's owned vertex range [lo, hi).
func (s *Shard) Range() (lo, hi uint32) { return s.lo, s.hi }

// ShardStatus is a snapshot of a shard's protocol state for readiness
// probes: group identity and role, last checkpointed position, and the
// fencing token currently in force.
type ShardStatus struct {
	Group   int    `json:"group"`
	Replica int    `json:"replica"`
	Role    string `json:"role"` // "primary" (replica 0) or "secondary"
	Lo      uint32 `json:"lo"`
	Hi      uint32 `json:"hi"`
	Epoch   uint64 `json:"epoch"`
	Round   uint32 `json:"round"`
	Fence   uint64 `json:"fence"`
	Resets  uint64 `json:"resets"`
}

// Status returns the shard's current protocol snapshot.
func (s *Shard) Status() ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	role := "primary"
	if s.replica != 0 {
		role = "secondary"
	}
	return ShardStatus{
		Group: s.id, Replica: s.replica, Role: role,
		Lo: s.lo, Hi: s.hi,
		Epoch: s.epoch, Round: s.next, Fence: s.fence, Resets: s.resets,
	}
}

// admitFence runs the fencing check under s.mu: requests carrying a
// token below the highest one seen are from a deposed coordinator and
// are refused; a higher token raises the bar. Token 0 is the legacy
// unfenced protocol — it is admitted only until a fenced coordinator
// (token >= 1) has been seen. The raised bar is persisted with the next
// round's log record (best effort: a fence learned between rounds dies
// with the process, and the standby's strictly-higher token makes that
// safe).
func (s *Shard) admitFence(fence uint64) error {
	if s.inj != nil {
		d := s.inj.Decide(faultinject.SiteShardLease, s.seq.Next(faultinject.SiteShardLease))
		if d.Delay > 0 {
			s.mu.Unlock()
			time.Sleep(d.Delay)
			s.mu.Lock()
		}
		if d.Err != nil {
			return d.Err
		}
	}
	if fence < s.fence {
		return fmt.Errorf("%w: token %d below admitted %d", ErrFenced, fence, s.fence)
	}
	if fence > s.fence {
		s.fence = fence
	}
	return nil
}

// Expand answers one round message: claim the candidate vertices this
// shard owns at depth == round, expand the claimed frontier, and return
// the discoveries bucketed per destination shard. The returned bytes
// are the encoded ExpandResponse (pre-encoded so replays are
// byte-identical). fence is the sender's fencing token (0 = legacy
// unfenced).
func (s *Shard) Expand(req *Frontier, fence uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if err := s.admitFence(fence); err != nil {
		return nil, err
	}
	if s.inj != nil {
		d := s.inj.Decide(faultinject.SiteShardExpand, s.seq.Next(faultinject.SiteShardExpand))
		if d.Delay > 0 {
			// Deliberately slept under s.mu: the injected latency slows the
			// whole round, which is what crash harnesses need to land a
			// SIGKILL mid-epoch deterministically.
			time.Sleep(d.Delay)
		}
		if d.Panic {
			panic(faultinject.PanicValue{Site: faultinject.SiteShardExpand})
		}
		if d.Err != nil {
			return nil, d.Err
		}
	}
	if s.inj != nil {
		// shard.stall is a delay-only gray failure: the replica stays
		// alive (health still answers; nothing errors) but holds its round
		// response long enough that an unhedged coordinator would stall
		// the whole epoch on it. The hedge is what absorbs this.
		d := s.inj.Decide(faultinject.SiteShardStall, s.seq.Next(faultinject.SiteShardStall))
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
	}
	if req.Shard != uint32(s.id) || req.Lo != s.lo || req.Hi != s.hi {
		return nil, fmt.Errorf("%w: frontier for shard %d [%d,%d), this is shard %d [%d,%d)",
			ErrWire, req.Shard, req.Lo, req.Hi, s.id, s.lo, s.hi)
	}

	switch {
	case req.Epoch == s.epoch && req.Round+1 == s.next && s.resp != nil:
		// Duplicate of the round just processed: replay the cached
		// response byte-for-byte. The coordinator's retry after a lost
		// response lands here.
		return s.resp, nil
	case req.Epoch == s.epoch && req.Round == s.next:
		// The expected next round: process below.
	case req.Round == 0:
		// Round 0 of any epoch starts that epoch fresh: this is both how
		// epochs begin and how the coordinator restarts one after a shard
		// lost its state. The old epoch's log stays on disk until the new
		// one replaces it.
		s.epoch, s.next, s.resp = req.Epoch, 0, nil
		for i := range s.depth {
			s.depth[i] = -1
		}
		s.closeLog()
		s.resets++
	default:
		return nil, fmt.Errorf("%w: shard %d at epoch %d round %d, message is epoch %d round %d",
			ErrRoundSequence, s.id, s.epoch, s.next, req.Epoch, req.Round)
	}

	if s.depth == nil {
		s.depth = make([]int32, s.hi-s.lo)
		for i := range s.depth {
			s.depth[i] = -1
		}
	}
	s.claim(req)
	if s.dir != "" {
		if err := s.persist(req.Round); err != nil {
			// Not durable, so the round did not happen: undo its claims and
			// let the coordinator's retry process it afresh.
			for _, off := range s.claimed {
				s.depth[off] = -1
			}
			return nil, fmt.Errorf("coord: shard %d checkpoint: %w", s.id, err)
		}
	}
	s.next = req.Round + 1
	s.resp = s.expand(req.Epoch, req.Round, s.claimed)
	return s.resp, nil
}

// claim scans the candidate bitmap a word at a time, claims every
// candidate not claimed in an earlier round at depth == round, and
// records the claimed offsets in s.claimed, ascending.
func (s *Shard) claim(req *Frontier) {
	s.claimed = s.claimed[:0]
	size := uint32(len(s.depth))
	for wi, w := range req.words {
		for ; w != 0; w &= w - 1 {
			off := uint32(wi)<<5 | uint32(bits.TrailingZeros32(w))
			if off < size && s.depth[off] == -1 {
				s.depth[off] = int32(req.Round)
				s.claimed = append(s.claimed, off)
			}
		}
	}
}

// expand marks every out-neighbor of the claimed offsets in one bitmap
// over the whole graph, cuts it into the per-destination frontiers and
// returns the round's encoded response. The output depends only on the
// arguments and the owned CSR, so re-expanding a logged round's claims
// rebuilds its response byte for byte.
func (s *Shard) expand(epoch uint64, round uint32, claimed []uint32) []byte {
	resp := &ExpandResponse{Epoch: epoch, Round: round, Shard: uint32(s.id), Claimed: uint64(len(claimed))}
	if len(claimed) == 0 {
		return resp.Encode()
	}
	seen := s.seen
	for _, off := range claimed {
		for _, w := range s.nbrs[s.offsets[off]:s.offsets[off+1]] {
			seen[w>>5] |= 1 << (w & 31)
		}
	}
	for _, f := range s.dests {
		if cutFrontier(f, seen) {
			f.Epoch, f.Round = epoch, round
			resp.Out = append(resp.Out, f)
		}
	}
	clear(seen)
	return resp.Encode()
}

// cutFrontier copies the bits of seen over [f.Lo, f.Hi) into f and
// reports whether any is set. f.Lo need not be word-aligned: each word
// of f is funnel-shifted out of two words of seen.
func cutFrontier(f *Frontier, seen []uint32) bool {
	k, sh := int(f.Lo>>5), f.Lo&31
	tail := (f.Hi - f.Lo) & 31
	var or uint32
	for i := range f.words {
		j := k + i
		w := seen[j] >> sh
		if j+1 < len(seen) {
			w |= seen[j+1] << (32 - sh) // a shift by 32 yields 0
		}
		if tail != 0 && i == len(f.words)-1 {
			w &= 1<<tail - 1
		}
		f.words[i] = w
		or |= w
	}
	return or != 0
}

// persist makes the round durable before its response may leave. The
// first round of a log (round 0, or the first after a snapshot restore
// or a failed write) writes the whole log to a temp file, syncs it and
// renames it into place, so a crash in between keeps the old file and
// its fence. Every later round appends its record and syncs it.
func (s *Shard) persist(round uint32) error {
	var fault error
	if s.inj != nil {
		d := s.inj.Decide(faultinject.SiteShardCheckpoint, s.seq.Next(faultinject.SiteShardCheckpoint))
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		fault = d.Err
	}
	s.rec = appendLogRecord(s.rec[:0], round, s.fence, s.claimed)
	if s.log == nil {
		return s.rewriteLog(fault)
	}
	if fault == nil {
		_, fault = s.log.WriteAt(s.rec, s.logSize)
	}
	if fault == nil {
		fault = s.log.Sync()
	}
	if fault != nil {
		// What reached the file is unknown: the next round rewrites it.
		s.closeLog()
		return fault
	}
	s.logSize += int64(len(s.rec))
	return nil
}

// rewriteLog atomically replaces the log with the current epoch's: the
// header, one record per earlier round rebuilt from depth, and this
// round's record. fault, when set, fails it after the temp file is
// written and before the rename.
func (s *Shard) rewriteLog(fault error) error {
	img := appendLogHeader(nil, s.epoch, s.lo, s.hi, s.fence)
	if s.next > 0 {
		byRound := make([][]uint32, s.next)
		for off, d := range s.depth {
			if d >= 0 && uint32(d) < s.next {
				byRound[d] = append(byRound[d], uint32(off))
			}
		}
		for r, claimed := range byRound {
			img = appendLogRecord(img, uint32(r), s.fence, claimed)
		}
	}
	img = append(img, s.rec...)

	path := checkpointPath(s.dir)
	err := writeFileSync(path+".tmp", img)
	if err == nil {
		err = fault
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		return err
	}
	return s.openLog(int64(len(img)))
}

// openLog opens the round log for appends after its first size bytes,
// cutting off anything beyond them.
func (s *Shard) openLog(size int64) error {
	f, err := os.OpenFile(checkpointPath(s.dir), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	s.log, s.logSize = f, size
	return nil
}

// closeLog drops the open round log, if any.
func (s *Shard) closeLog() {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
}

// Depths returns the shard's committed depth slice for epoch, refusing
// other epochs (the coordinator must never mix epochs in one result).
func (s *Shard) Depths(epoch uint64, fence uint64) (*DepthSlice, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitFence(fence); err != nil {
		return nil, err
	}
	if epoch != s.epoch || s.depth == nil {
		return nil, fmt.Errorf("%w: depths requested for epoch %d, shard %d is at epoch %d",
			ErrRoundSequence, epoch, s.id, s.epoch)
	}
	d := &DepthSlice{Epoch: s.epoch, Shard: uint32(s.id), Lo: s.lo, Hi: s.hi}
	d.Depth = append([]int32(nil), s.depth...)
	return d, nil
}

// maxShardBody bounds request payloads: a frontier over the largest
// legal partition plus framing.
const maxShardBody = 1 << 30

// Fencing travels in HTTP headers, not the wire records: the records
// stay coordinator-agnostic (a replayed response is byte-identical no
// matter who asked) while every request still declares its sender's
// authority.
const (
	// FenceHeader carries the sender's fencing token on shard requests.
	// Absent means token 0, the legacy unfenced protocol.
	FenceHeader = "X-Fastbfs-Fence"
	// FencedHeader marks a 409 as a fencing rejection (value "1"), so
	// clients can tell ErrFenced from an ErrRoundSequence conflict
	// without parsing error strings.
	FencedHeader = "X-Fastbfs-Fenced"
)

// requestFence extracts the sender's fencing token from a request.
func requestFence(r *http.Request) uint64 {
	h := r.Header.Get(FenceHeader)
	if h == "" {
		return 0
	}
	var fence uint64
	fmt.Sscanf(h, "%d", &fence)
	return fence
}

// shardError writes err with its mapped status, tagging fencing
// rejections with FencedHeader.
func shardError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrFenced) {
		w.Header().Set(FencedHeader, "1")
	}
	http.Error(w, err.Error(), shardStatus(err))
}

// Handler returns the shard's HTTP API:
//
//	POST /shard/expand  — body: Frontier frame; 200: ExpandResponse
//	GET  /shard/depths?epoch=E — 200: DepthSlice
//	GET  /shard/health  — 200: shard id + partition + replica (heartbeat target)
//
// Sequencing violations and fencing rejections map to 409 (fencing ones
// additionally carry FencedHeader), malformed payloads to 400.
func (s *Shard) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/expand", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxShardBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeFrontier(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := s.Expand(req, requestFence(r))
		if err != nil {
			shardError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(resp)
	})
	mux.HandleFunc("GET /shard/depths", func(w http.ResponseWriter, r *http.Request) {
		var epoch uint64
		if _, err := fmt.Sscanf(r.URL.Query().Get("epoch"), "%d", &epoch); err != nil {
			http.Error(w, "missing or bad epoch parameter", http.StatusBadRequest)
			return
		}
		d, err := s.Depths(epoch, requestFence(r))
		if err != nil {
			shardError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(d.Encode())
	})
	mux.HandleFunc("GET /shard/health", func(w http.ResponseWriter, r *http.Request) {
		// The trailing "replica %d" is new; coordinators parsing only the
		// "shard %d [%d,%d)" prefix (via Sscanf) still match.
		fmt.Fprintf(w, "shard %d [%d,%d) replica %d\n", s.id, s.lo, s.hi, s.replica)
	})
	return mux
}

// shardStatus maps shard errors to HTTP statuses: sequencing conflicts
// and fencing rejections are 409 (retry cannot help), wire garbage 400,
// anything else 500.
func shardStatus(err error) int {
	switch {
	case errors.Is(err, ErrRoundSequence), errors.Is(err, ErrFenced):
		return http.StatusConflict
	case errors.Is(err, ErrWire):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
