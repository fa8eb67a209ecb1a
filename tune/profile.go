// Package tune closes the loop the paper opened: instead of only
// predicting BFS performance, the analytical model (model package,
// Eqns IV.1–IV.4) picks the engine configuration per graph. Calibrate
// runs a short calibration pass at graph-load time — degree/skew stats
// plus a few micro-probe BFS levels from sampled sources — and feeds
// the measured shape to model.SelectVIS, model.PredictDirections and
// model.PredictHybrid to choose every knob the engine exposes: the
// visited-structure variant, the direction-optimizing α/β (and whether
// hybrid pays at all), prefetch distance, batched binning, the MS-BFS
// lane width, and heap-vs-mmap residency. The result is a Profile: a
// small, JSON-serializable value the serve package applies to engine
// pools and batching schedules and journals in its durable manifest so
// restarts keep the tuned configuration without re-calibrating.
package tune

import (
	"fmt"

	"fastbfs/bfs"
)

// Profile provenance values (Source field).
const (
	// SourceDefault marks a profile whose knobs are the engine defaults:
	// the graph was too small or degenerate for calibration to deviate
	// safely (tuning overhead would dwarf any win, and timing noise
	// would dominate the model's signal).
	SourceDefault = "default"
	// SourceCalibrated marks a profile chosen by a fresh calibration
	// pass against the analytical model.
	SourceCalibrated = "calibrated"
	// SourceJournal marks a calibrated profile restored from the durable
	// manifest instead of re-calibrated — the kill -9 restart path.
	SourceJournal = "journal"
)

// VIS kind names used in profiles (stable JSON values, not the model's
// Figure 4 legend strings).
const (
	VISNameNone        = "none"
	VISNameAtomicBit   = "atomic-bit"
	VISNameByte        = "byte"
	VISNameBit         = "bit"
	VISNamePartitioned = "partitioned"
)

// Profile is one graph's tuned engine configuration plus the calibration
// evidence behind it. The zero value is NOT meaningful; build profiles
// with Calibrate or Defaults.
type Profile struct {
	// The knobs Apply writes into bfs.Options.
	Hybrid       bool    `json:"hybrid"`
	Alpha        float64 `json:"alpha,omitempty"` // 0 = engine default (15)
	Beta         float64 `json:"beta,omitempty"`  // 0 = engine default (18)
	VIS          string  `json:"vis"`
	PrefetchDist int     `json:"prefetch_dist"`
	BatchBinning bool    `json:"batch_binning"`

	// BatchWidth caps the sources per MS-BFS sweep for this graph: each
	// lane carries an 8-byte-per-vertex depth/parent array, so full
	// 64-lane sweeps on huge graphs would allocate more transient memory
	// than the graph itself. Serving schedulers clamp their round size
	// to it. 0 means no per-graph cap.
	BatchWidth int `json:"batch_width,omitempty"`

	// MmapRecommended reports that the graph's payload is large enough
	// that read-only file mapping beats heap decode (warm restarts
	// bounded by page cache, no transient decode copy). Advisory: the
	// residency of an already-loaded graph is never changed in place.
	MmapRecommended bool `json:"mmap_recommended,omitempty"`

	// Provenance.
	Source string `json:"source"`
	// PredictedMTEPS is the model's throughput for the chosen knobs;
	// DefaultPredictedMTEPS the same model on the default configuration.
	// The chosen knobs always satisfy Predicted >= DefaultPredicted —
	// the default configuration is in every candidate set.
	PredictedMTEPS        float64 `json:"predicted_mteps,omitempty"`
	DefaultPredictedMTEPS float64 `json:"default_predicted_mteps,omitempty"`
	CalibrationMS         float64 `json:"calibration_ms,omitempty"`

	// Calibration inputs: graph shape and probe coverage.
	Vertices      int     `json:"vertices,omitempty"`
	Edges         int64   `json:"edges,omitempty"`
	MeanDegree    float64 `json:"mean_degree,omitempty"`
	DegreeCV      float64 `json:"degree_cv,omitempty"` // stddev/mean skew
	ProbeDepth    int     `json:"probe_depth,omitempty"`
	ProbeComplete bool    `json:"probe_complete,omitempty"`
}

// Defaults returns a profile whose knobs mirror bfs.Default: the paper's
// best fixed single-socket configuration. Source is SourceDefault.
func Defaults() *Profile {
	return &Profile{
		VIS:          VISNamePartitioned,
		PrefetchDist: 8,
		BatchBinning: true,
		Source:       SourceDefault,
	}
}

// Apply overlays the profile's knobs on base and returns the result.
// Identity fields — Workers, Sockets, cache geometry, Symmetric,
// Instrument, StepHook — pass through untouched: the profile tunes how
// a traversal runs, not what it runs on. A nil profile is the identity.
func (p *Profile) Apply(base bfs.Options) bfs.Options {
	if p == nil {
		return base
	}
	o := base
	if k, ok := VISKindFromName(p.VIS); ok {
		o.VIS = k
	}
	o.PrefetchDist = p.PrefetchDist
	o.BatchBinning = p.BatchBinning
	o.Hybrid = p.Hybrid
	o.Alpha = p.Alpha
	o.Beta = p.Beta
	return o
}

// Summary renders the chosen knobs in one log-friendly line.
func (p *Profile) Summary() string {
	if p == nil {
		return "defaults"
	}
	hy := "topdown"
	if p.Hybrid {
		a, b := p.Alpha, p.Beta
		if a == 0 {
			a = bfs.DefaultAlpha
		}
		if b == 0 {
			b = bfs.DefaultBeta
		}
		hy = fmt.Sprintf("hybrid(α=%g,β=%g)", a, b)
	}
	s := fmt.Sprintf("%s vis=%s prefetch=%d binning=%v", hy, p.VIS, p.PrefetchDist, p.BatchBinning)
	if p.BatchWidth > 0 {
		s += fmt.Sprintf(" lanes=%d", p.BatchWidth)
	}
	if p.PredictedMTEPS > 0 {
		s += fmt.Sprintf(" predicted=%.0fMTEPS", p.PredictedMTEPS)
	}
	return s
}

// VISKindFromName parses a profile VIS name; unknown names report false
// so a profile journaled by a newer build degrades to the base option
// instead of corrupting it.
func VISKindFromName(name string) (bfs.VISKind, bool) {
	switch name {
	case VISNameNone:
		return bfs.VISNone, true
	case VISNameAtomicBit:
		return bfs.VISAtomicBit, true
	case VISNameByte:
		return bfs.VISByte, true
	case VISNameBit:
		return bfs.VISBit, true
	case VISNamePartitioned:
		return bfs.VISPartitioned, true
	}
	return 0, false
}
