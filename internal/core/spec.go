// Package core implements Vista itself: the declarative feature-transfer API
// of Section 3.3. A Spec says *what* to run — the system environment, the
// roster CNN f and the number of feature layers |L| to explore, the
// downstream ML routine M, and the data tables with their statistics — and
// Run decides *how*: it invokes the optimizer (Section 4.3) for the logical
// plan's configuration, provisions the dataflow engine and DL session,
// executes the Staged plan (or an explicitly requested alternative, for
// experiments), and trains M on every selected layer.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/obs/sampler"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// DownstreamKind selects the downstream model M.
type DownstreamKind int

// Downstream model kinds.
const (
	// LogisticRegression is the paper's primary M (MLlib-style,
	// distributed full-batch gradient descent).
	LogisticRegression DownstreamKind = iota
	// DecisionTree is the CART alternative of Section 5.2.
	DecisionTree
	// MLP is the neural downstream model of the TFT+Beam comparison.
	MLP
)

// String implements fmt.Stringer.
func (k DownstreamKind) String() string {
	switch k {
	case LogisticRegression:
		return "logistic-regression"
	case DecisionTree:
		return "decision-tree"
	case MLP:
		return "mlp"
	}
	return fmt.Sprintf("downstream(%d)", int(k))
}

// DownstreamSpec configures M.
type DownstreamSpec struct {
	Kind   DownstreamKind
	LogReg ml.LogRegConfig
	Tree   ml.TreeConfig
	MLP    ml.MLPConfig
	// TestFraction, when positive, holds out that fraction of rows (by ID
	// hash) for evaluation; metrics are reported on both splits.
	TestFraction float64
}

// DefaultDownstream returns the paper's Section 5 settings: logistic
// regression, 10 iterations, elastic net α = 0.5, λ = 0.01, 20% test split.
func DefaultDownstream() DownstreamSpec {
	return DownstreamSpec{
		Kind:         LogisticRegression,
		LogReg:       ml.DefaultLogRegConfig(),
		Tree:         ml.DefaultTreeConfig(),
		MLP:          ml.DefaultMLPConfig(),
		TestFraction: 0.2,
	}
}

// Spec is Vista's declarative input (Figure 13 / Section 3.3's four input
// groups).
type Spec struct {
	// — Group 1: system environment —
	Nodes        int
	CoresPerNode int
	MemPerNode   int64
	// GPUMemPerNode is per-worker accelerator memory (0 = CPU only).
	GPUMemPerNode int64
	// SystemKind selects Spark-like or Ignite-like PD semantics.
	SystemKind memory.SystemKind

	// — Group 2: CNN and layers —
	// ModelName is a roster name; real execution requires an executable
	// (Tiny*) model.
	ModelName string
	// NumLayers is |L|, counted from the top-most feature layer.
	NumLayers int

	// — Group 3: downstream ML routine —
	Downstream DownstreamSpec

	// — Group 4: data and statistics —
	StructRows []dataflow.Row
	ImageRows  []dataflow.Row

	// Seed drives CNN weight realization.
	Seed int64

	// FeatureStore, when non-nil, enables cross-run feature reuse: Run
	// consults the store before scheduling partial-inference stages (a fully
	// covered stage is attached from cache instead of computed) and
	// publishes features it does compute back under the run's content
	// address (model, weight checksum, image-content checksum, layer).
	FeatureStore *featurestore.Store

	// FeatureSource, when non-nil, is probed before the durable FeatureStore
	// for each plan step's outputs — the in-memory fast path of multi-query
	// shared inference (internal/share): a sharing follower carries its
	// group's handoff here and attaches the leader's feature tables without
	// opening a DL session. Stages served from the source are labeled
	// "shared:<layer>" in the trace and counted in CacheReport.StagesShared.
	FeatureSource FeatureSource

	// FeatureSink, when non-nil, receives every materialized table a live
	// inference step produces (same content addresses the FeatureStore would
	// use). A sharing leader carries its group's handoff here so followers
	// attach directly from memory; the durable store, when also configured,
	// is written independently.
	FeatureSink FeatureSink

	// Metrics, when non-nil, receives the run's live instrumentation: the
	// engine registers its counters and per-node pool gauges (and the
	// feature store its hit/miss/byte series) into this registry, so an HTTP
	// scrape observes the run in flight. A long-lived registry may be reused
	// across runs; each run's engine takes over the engine series.
	Metrics *obs.Registry

	// SampleEvery, when positive (and Metrics is set), runs a time-series
	// sampler for the duration of the run: every period it snapshots the
	// engine/pool/feature-store series into an in-memory ring, tagging each
	// frame with the stage open at that instant. The recording lands on
	// Result.Series, ready for the export writers (CSV/JSON time series,
	// Chrome trace counter tracks) and sim.CompareSeries.
	SampleEvery time.Duration

	// — Experiment overrides (default zero values = Vista's choices) —
	// PlanKind/Placement force a logical plan; Vista's default is
	// Staged/AJ (Section 4.2.1: "it suffices for Vista to only use our new
	// Staged plan"; Section 5.3 validates Staged/AJ).
	PlanKind  plan.Kind
	Placement plan.JoinPlacement
	// PreMaterializeBase enables the Appendix B variant.
	PreMaterializeBase bool
	// Decision, when non-nil, bypasses the optimizer (baseline configs).
	Decision *optimizer.Decision
	// Params, when non-nil, overrides the Table 1(C) fixed-but-adjustable
	// system parameters (OS reservation, Core Memory, partition caps, α).
	Params *optimizer.Params
	// CostScales applies a fitted calibration profile's per-stage-kind
	// corrections (calib.Profile.CostScales) to plan choice and pricing.
	// The zero value is the identity — the paper constants unchanged. When
	// both Params and CostScales are set, CostScales wins over
	// Params.Scales.
	CostScales optimizer.CostScales
	// SpillDir overrides the engine's spill directory (tests).
	SpillDir string
}

// FeatureSource serves materialized feature tables by content address — the
// read side of an in-memory handoff between runs sharing one inference pass
// (implemented by share.Handoff). Lookup must return rows the caller may own
// outright (deep copies), since each run's engine mutates its tables.
type FeatureSource interface {
	Lookup(k featurestore.Key) (rows []dataflow.Row, ok bool)
}

// FeatureSink receives materialized feature tables by content address — the
// write side of the handoff (implemented by share.Handoff). Publish takes
// ownership of rows; the executor never mutates them afterwards.
type FeatureSink interface {
	Publish(k featurestore.Key, rows []dataflow.Row)
}

// params returns the effective Table 1(C) parameters, with the spec's
// calibration scales folded in.
func (s *Spec) params() optimizer.Params {
	p := optimizer.DefaultParams()
	if s.Params != nil {
		p = *s.Params
	}
	if !s.CostScales.IsIdentity() {
		p.Scales = s.CostScales
	}
	return p
}

// Validate checks the spec before execution.
func (s *Spec) Validate() error {
	switch {
	case s.Nodes <= 0 || s.CoresPerNode <= 0:
		return fmt.Errorf("core: need positive nodes/cores, got %d/%d", s.Nodes, s.CoresPerNode)
	case s.MemPerNode <= 0:
		return fmt.Errorf("core: need positive worker memory")
	case s.NumLayers <= 0:
		return fmt.Errorf("core: need at least one feature layer")
	case len(s.StructRows) == 0 || len(s.ImageRows) == 0:
		return fmt.Errorf("core: both Tstr and Timg must be non-empty")
	case len(s.StructRows) != len(s.ImageRows):
		return fmt.Errorf("core: Tstr has %d rows, Timg has %d", len(s.StructRows), len(s.ImageRows))
	}
	if _, err := cnn.ByName(s.ModelName); err != nil {
		return err
	}
	return nil
}

// LayerResult is one trained downstream model with its evaluation.
type LayerResult struct {
	// LayerName is the feature layer's roster label.
	LayerName string
	// FeatureDim is the flattened feature-vector length.
	FeatureDim int
	// Model is the trained downstream model.
	Model ml.Model
	// Train and Test are metrics on the respective splits (Test.N == 0
	// when TestFraction is 0).
	Train, Test ml.Metrics
}

// CacheReport summarizes a run's interaction with the feature store.
type CacheReport struct {
	// Enabled is true when the spec carried a feature store and/or a share
	// handoff (FeatureSource/FeatureSink), i.e. cross-run reuse was possible.
	Enabled bool `json:"enabled"`
	// StagesFromCache and StagesExecuted split the plan's inference stages
	// into those attached from materialized features and those run live.
	StagesFromCache int `json:"stages_from_cache"`
	StagesExecuted  int `json:"stages_executed"`
	// StagesShared counts stages attached from an in-memory FeatureSource (a
	// sharing group's handoff) rather than the durable store; such stages are
	// not included in StagesFromCache.
	StagesShared int `json:"stages_shared"`
	// EntriesLoaded and EntriesStored count store entries read and written.
	EntriesLoaded int `json:"entries_loaded"`
	EntriesStored int `json:"entries_stored"`
	// WeightsSum and DataSum are the run's content-address components,
	// reusable to probe the store for this workload (e.g. by the server's
	// /simulate path).
	WeightsSum string `json:"weights_sum,omitempty"`
	DataSum    string `json:"data_sum,omitempty"`
}

// Result is the output of one feature-transfer run: |L| trained models, the
// configuration Vista chose, and the run's instrumentation.
type Result struct {
	Decision optimizer.Decision
	Plan     *plan.Plan
	Layers   []LayerResult
	Counters dataflow.Snapshot
	Elapsed  time.Duration
	// Trace is the run's span tree: a root "run" span with one child per
	// stage in execution order — the real-engine analogue of the paper's
	// Table 3 breakdown. Stage spans are named "ingest", "join",
	// "infer:<layer>", "train:<layer>", "premat:<layer>", "cache:<layer>" (a
	// stage served from the feature store), or "shared:<layer>" (a stage
	// attached from a sharing group's in-memory handoff), and carry
	// row/byte/FLOP attributes. Render it for the -trace report, or feed it
	// to sim.CompareTrace to line measured stage times up against the
	// simulator's estimates.
	Trace *obs.Span
	// Series is the run's sampled time series (nil unless Spec.SampleEvery
	// and Spec.Metrics were set): per-period frames of engine counters, pool
	// gauges, and feature-store series with live stage markers. Feed it to
	// export.WriteTimeseriesCSV/JSON, export.WriteChromeTrace (counter
	// tracks), or sim.CompareSeries.
	Series *sampler.Recording
	// Cache reports feature-store usage (zero value when no store).
	Cache CacheReport
}

// TimingFor sums the durations of all stage spans whose name has the given
// prefix (e.g. "train:" for all downstream training).
func (r *Result) TimingFor(prefix string) time.Duration {
	var total time.Duration
	for _, sp := range r.Trace.Children() {
		if strings.HasPrefix(sp.Name(), prefix) {
			total += sp.Duration()
		}
	}
	return total
}
