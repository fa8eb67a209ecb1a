// Graph lifecycle while serving: load and unload graphs without
// restarting the daemon, under a resident-bytes budget, with readiness
// distinct from liveness.
//
// Loads are survivable by construction: the file is read and validated
// (including the CRC32 footer, when present) entirely off to the side;
// only a fully-decoded graph is swapped into the serving table, under
// the service lock, as a single map-pointer update. Queries admitted
// against a replaced graph finish on the old state — its engines,
// cache and breaker stay reachable from its flights and their runs until
// the last one resolves, then the whole object graph is collected.
package serve

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"fastbfs/graph"
	"fastbfs/index"
	"fastbfs/tune"
)

var (
	// ErrLoadFailed is the sentinel matched by *LoadError: the graph
	// file could not be read, decoded or validated. The serving table
	// is untouched by a failed load.
	ErrLoadFailed = errors.New("serve: graph load failed")
	// ErrResidentBudget rejects a load that would exceed
	// MaxResidentBytes even after evicting every idle graph.
	ErrResidentBudget = errors.New("serve: resident-bytes budget exceeded")
)

// LoadError describes a failed graph load; it wraps the underlying I/O,
// decode or checksum error.
type LoadError struct {
	Name string
	Path string
	Err  error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("serve: loading graph %q from %s: %v", e.Name, e.Path, e.Err)
}

// Unwrap exposes the underlying failure (e.g. graph.ErrChecksum).
func (e *LoadError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrLoadFailed) true for load failures.
func (e *LoadError) Is(target error) bool { return target == ErrLoadFailed }

// graphResidentBytes is the resident payload of one graph: the CSR
// offsets (8 bytes per vertex + 1) and neighbor IDs (4 bytes each).
// Engine and cache memory is deliberately excluded — it is bounded by
// PoolSize and CacheEntries, not by graph count.
func graphResidentBytes(g *graph.Graph) int64 {
	return 8*int64(len(g.Offsets)) + 4*int64(len(g.Neighbors))
}

// ErrNotRecovered rejects durable mutations on a StateDir service whose
// Recover has not run yet: journaling before replay would interleave new
// records into an un-replayed journal.
var ErrNotRecovered = errors.New("serve: state dir configured but Recover has not completed")

// LoadOptions selects how LoadGraphOptions materializes a graph file.
type LoadOptions struct {
	// Mmap maps the file read-only (graph.LoadMmap) instead of decoding
	// it onto the heap; nil means Config.MmapLoads decides.
	Mmap *bool
	// Tune overrides Config.AutoTune for this load: false pins the
	// engine defaults (no calibration), true forces a calibration pass
	// even on a service with AutoTune off. nil defers to the config.
	Tune *bool
}

// LoadGraph reads a CSR graph file and makes it queryable under name,
// atomically replacing any existing graph of that name, using the
// service's default load mode.
func (s *Service) LoadGraph(name, path string) (GraphInfo, error) {
	return s.LoadGraphOptions(name, path, LoadOptions{})
}

// LoadGraphOptions reads a CSR graph file and makes it queryable under
// name, atomically replacing any existing graph of that name. Decoding
// and validation (structure and CRC32 footer) happen before the swap,
// so a corrupt or truncated file never disturbs serving — the typed
// *LoadError tells the caller why. Loads count into /readyz's loading
// state but do not block queries.
//
// In durable mode (Config.StateDir) the load is journaled — written and
// fsync'd — before the serving table changes; a success return
// therefore means the graph survives any subsequent crash and restart.
func (s *Service) LoadGraphOptions(name, path string, opt LoadOptions) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("%w: empty graph name", ErrBadRequest)
	}
	if s.Draining() {
		return GraphInfo{}, ErrDraining
	}
	if s.cfg.StateDir != "" && s.recovering.Load() {
		return GraphInfo{}, ErrNotRecovered
	}
	s.loading.Add(1)
	defer s.loading.Add(-1)

	mmap := s.cfg.MmapLoads
	if opt.Mmap != nil {
		mmap = *opt.Mmap
	}
	g, err := s.loadGraphFile(path, mmap)
	if err != nil {
		s.stats.graphLoadsFailed.Add(1)
		return GraphInfo{}, &LoadError{Name: name, Path: path, Err: err}
	}

	// Calibrate before taking the service lock: the pass is pure CPU
	// work against the freshly loaded graph. The profile travels inside
	// the load's journal record, so the same fsync that makes the load
	// durable makes the tuning durable.
	prof := s.maybeCalibrate(name, g, opt.Tune)

	s.mu.Lock()
	var spec *GraphSpec
	if s.manifest != nil {
		spec = &GraphSpec{Name: name, Path: path, Mmap: mmap, Tune: prof}
	}
	err = s.registerGraphLocked(name, g, true, path, spec, prof)
	var info GraphInfo
	if err == nil {
		gs := s.graphs[name]
		info = GraphInfo{
			Name:          gs.name,
			Vertices:      gs.g.NumVertices(),
			Edges:         gs.g.NumEdges(),
			ResidentBytes: gs.resident,
			Mapped:        gs.mapped,
			Breaker:       BreakerClosed,
		}
	}
	s.mu.Unlock()
	if err != nil {
		s.stats.graphLoadsFailed.Add(1)
		return GraphInfo{}, err
	}
	s.stats.graphLoads.Add(1)
	return info, nil
}

// loadGraphFile materializes one graph file, either mapped read-only or
// decoded onto the heap. Both paths verify the CRC footer and the
// structural invariants; they differ only in residency.
func (s *Service) loadGraphFile(path string, mmap bool) (*graph.Graph, error) {
	if mmap {
		return graph.LoadMmap(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadFrom(s.chaosLoadReader(f))
}

// UnloadGraph removes a graph from the serving table. In-flight
// queries against it complete normally on the detached state; new
// queries get ErrUnknownGraph. In durable mode the unload is journaled
// before the table changes: if the record cannot be made durable the
// graph stays loaded and the caller gets the journal error, so the
// serving table never silently diverges from what a restart restores.
func (s *Service) UnloadGraph(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gs := s.graphs[name]
	if gs == nil {
		return fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	if s.manifest != nil && s.manifest.Contains(name) {
		if err := s.manifest.AppendUnload(name); err != nil {
			return fmt.Errorf("serve: unload %q not durable: %w", name, err)
		}
	}
	delete(s.graphs, name)
	s.retireLocked(gs)
	s.stats.graphUnloads.Add(1)
	return nil
}

// RecoverySummary reports what Recover restored.
type RecoverySummary struct {
	// Graphs are the names recovered and serving, in journal order.
	Graphs []string
	// Failed are journaled graphs that could not be reloaded (file
	// missing, corrupt, or over budget); the service boots without
	// them rather than refusing to start.
	Failed []string
	// Indexes are the graphs whose journaled index artifact was
	// remounted and is serving again.
	Indexes []string
	// IndexesRebuilding are the graphs whose journaled index artifact
	// could not be remounted (missing, torn/CRC-rejected, or built for
	// a different graph snapshot); the artifact is never served — a
	// fresh background rebuild with the journaled parameters was
	// started instead.
	IndexesRebuilding []string
	// Tuned are the graphs whose journaled tuning profile was reused
	// as-is — the kill -9 restart path that skips re-calibration.
	Tuned []string
	// Recalibrated are the graphs that had no journaled profile (specs
	// written before tuning existed) and were calibrated fresh during
	// recovery, with the new profile journaled via an opTune record.
	Recalibrated []string
	// Duration is the wall time recovery took, including graph loads.
	Duration time.Duration
	// Journal is the manifest state after replay.
	Journal ManifestStats
}

// Recover opens the manifest under Config.StateDir and restores the
// durable serving table: snapshot + journal are replayed (a torn or
// corrupt journal tail is truncated, never fatal) and every recorded
// graph is reloaded in its recorded mode (mmap or heap). Until Recover
// returns the service reports not Ready and rejects durable mutations;
// queries against already-restored graphs are answered during recovery.
//
// A graph whose file cannot be reloaded is skipped and reported in the
// summary — recovery restores as much of the pre-crash table as the
// filesystem still supports, and never refuses to boot. On a service
// without a StateDir, Recover is a no-op.
func (s *Service) Recover() (RecoverySummary, error) {
	if s.cfg.StateDir == "" {
		return RecoverySummary{}, nil
	}
	start := time.Now()
	s.mu.Lock()
	if s.manifest != nil {
		s.mu.Unlock()
		return RecoverySummary{}, errors.New("serve: Recover called twice")
	}
	m, err := OpenManifest(s.cfg.StateDir, s.cfg.SnapshotEvery)
	if err != nil {
		s.mu.Unlock()
		return RecoverySummary{}, err
	}
	// Thread the chaos injector into the journal before any append can
	// happen: the manifest.append site is what drives degraded-
	// durability tests deterministically.
	m.inj, m.seqr, m.logf = s.inj, &s.seq, s.logf
	s.manifest = m
	s.mu.Unlock()

	var sum RecoverySummary
	var rebuilds []GraphSpec             // graphs whose index artifact must be rebuilt
	var retunes map[string]*tune.Profile // fresh profiles to journal post-replay
	for _, spec := range m.State() {
		g, err := s.loadGraphFile(spec.Path, spec.Mmap)
		var prof *tune.Profile
		if err == nil {
			if spec.Tune != nil {
				// The whole point of journaling the profile: reuse it
				// verbatim, no calibration pass on the restart path.
				reused := *spec.Tune
				reused.Source = tune.SourceJournal
				prof = &reused
				sum.Tuned = append(sum.Tuned, spec.Name)
				s.logf("serve: graph %q: reusing journaled tuning profile: %s", spec.Name, prof.Summary())
			} else if s.cfg.AutoTune {
				// Spec journaled before tuning existed: calibrate now
				// and make it durable once replay has finished.
				prof = s.calibrateProfile(spec.Name, g)
				if retunes == nil {
					retunes = make(map[string]*tune.Profile)
				}
				retunes[spec.Name] = prof
				sum.Recalibrated = append(sum.Recalibrated, spec.Name)
			}
			s.mu.Lock()
			// Already journaled — spec nil keeps replay idempotent.
			err = s.registerGraphLocked(spec.Name, g, true, spec.Path, nil, prof)
			s.mu.Unlock()
		}
		if err != nil {
			s.stats.graphLoadsFailed.Add(1)
			sum.Failed = append(sum.Failed, spec.Name)
			continue
		}
		sum.Graphs = append(sum.Graphs, spec.Name)
		if spec.Index == nil {
			continue
		}
		// Remount the journaled index artifact. Whatever goes wrong —
		// missing file, torn write (CRC-rejected by Decode), or an
		// artifact for a different graph snapshot — the artifact is
		// never served; the index is rebuilt fresh instead.
		if err := s.remountIndex(spec.Name, g, *spec.Index); err != nil {
			rebuilds = append(rebuilds, spec)
			continue
		}
		sum.Indexes = append(sum.Indexes, spec.Name)
	}
	s.recovering.Store(false)
	// Post-replay journaling (must not interleave with replay): fresh
	// profiles for pre-tuning specs become durable opTune records, so
	// the NEXT restart reuses them instead of calibrating again.
	for name, prof := range retunes {
		_ = m.AppendTune(name, prof) // best effort; next boot just recalibrates
	}
	// Rebuilds kick off only after recovering clears: they journal a
	// fresh opIndex record on completion, which must not interleave
	// with replay.
	for _, spec := range rebuilds {
		opt := IndexOptions{Landmarks: spec.Index.Landmarks, Policy: spec.Index.Policy, Seed: spec.Index.Seed, Force: true}
		if _, err := s.BuildIndex(spec.Name, opt); err == nil {
			sum.IndexesRebuilding = append(sum.IndexesRebuilding, spec.Name)
		}
	}
	sum.Duration = time.Since(start)
	s.recoveryDur.Store(int64(sum.Duration))
	sum.Journal = m.Stats()
	return sum, nil
}

// remountIndex loads one journaled index artifact and mounts it for an
// already-recovered graph. The artifact passes the same gauntlet a
// fresh load of the graph file does: structural validation, the CRC32
// footer, and a shape check against the graph it claims to serve.
func (s *Service) remountIndex(name string, g *graph.Graph, spec IndexSpec) error {
	if spec.Path == "" {
		return fmt.Errorf("serve: index record for %q has no artifact path", name)
	}
	load := index.Load
	if spec.Mmap {
		load = index.LoadMmap
	}
	ix, err := load(spec.Path)
	if err != nil {
		return err
	}
	if !ix.Matches(g) {
		return fmt.Errorf("serve: index artifact %s was built for a different graph snapshot", spec.Path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gs := s.graphs[name]
	if gs == nil {
		return fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	return s.mountIndexLocked(gs, ix, &spec)
}

// GraphReady is one graph's contribution to readiness.
type GraphReady struct {
	Name         string `json:"name"`
	Breaker      string `json:"breaker"`
	BreakerOpens int64  `json:"breaker_opens"`
	// Tune is the provenance of the graph's tuning profile ("default",
	// "calibrated" or "journal"; empty = untuned service).
	Tune string `json:"tune,omitempty"`
	// TunePredictedMTEPS is the model's throughput for the profile;
	// TuneMeasuredMTEPS the observed serving throughput so far (0 until
	// the graph has served a traversal). Their ratio is the model's
	// live report card.
	TunePredictedMTEPS float64 `json:"tune_predicted_mteps,omitempty"`
	TuneMeasuredMTEPS  float64 `json:"tune_measured_mteps,omitempty"`
	// Quarantined reports that the integrity scrubber found a checksum
	// mismatch in this graph's resident bytes and forced its breaker
	// open; ScrubError is the mismatch detail. The scrubber lifts the
	// quarantine automatically once a remount (or the healed file)
	// verifies again.
	Quarantined bool   `json:"quarantined,omitempty"`
	ScrubError  string `json:"scrub_error,omitempty"`
}

// ReadyState is the /readyz payload: Ready is the single bit a load
// balancer needs; the rest says why it is false. A service is ready
// when it is not draining, has no graph load in progress, and every
// breaker is closed — unlike /healthz, which only says the process is
// up and not draining.
type ReadyState struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	Loading  int  `json:"loading"`
	// Recovering is true on a durable (StateDir) service until Recover
	// has replayed the journal and reloaded the recorded graphs; load
	// balancers must not route here before then.
	Recovering bool `json:"recovering,omitempty"`
	// IndexBuilds is the number of index builds currently running.
	// Builds are background work and do not gate Ready.
	IndexBuilds   int   `json:"index_builds,omitempty"`
	ResidentBytes int64 `json:"resident_bytes"`
	// Durability is "durable" while journal appends succeed and
	// "degraded" after a disk fault flipped the manifest read-only
	// (mutating admin ops refused, queries still exact); empty on a
	// stateless service. Degraded durability does not gate Ready —
	// the graphs still serve exact answers.
	Durability string       `json:"durability,omitempty"`
	Graphs     []GraphReady `json:"graphs"`
}

// Ready reports whether the service should receive traffic.
func (s *Service) Ready() ReadyState {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := ReadyState{
		Draining:      s.draining,
		Loading:       int(s.loading.Load()),
		Recovering:    s.recovering.Load(),
		ResidentBytes: s.resident,
		Graphs:        make([]GraphReady, 0, len(s.graphs)),
	}
	if s.manifest != nil {
		rs.Durability = DurabilityDurable
		if degraded, _ := s.manifest.Degraded(); degraded {
			rs.Durability = DurabilityDegraded
		}
	}
	ready := !rs.Draining && rs.Loading == 0 && !rs.Recovering
	for _, gs := range s.graphs {
		state, opens := gs.breaker.snapshot()
		if state != BreakerClosed {
			ready = false
		}
		if gs.idxState == IndexBuilding {
			rs.IndexBuilds++
		}
		gr := GraphReady{
			Name: gs.name, Breaker: state, BreakerOpens: opens,
			Quarantined: gs.scrubQuarantined, ScrubError: gs.scrubErr,
		}
		if gs.profile != nil {
			gr.Tune = gs.profile.Source
			gr.TunePredictedMTEPS = gs.profile.PredictedMTEPS
			gr.TuneMeasuredMTEPS = measuredMTEPS(&gs.qEdges, &gs.qNanos)
		}
		rs.Graphs = append(rs.Graphs, gr)
	}
	sort.Slice(rs.Graphs, func(i, j int) bool { return rs.Graphs[i].Name < rs.Graphs[j].Name })
	rs.Ready = ready
	return rs
}
