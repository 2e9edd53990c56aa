// Package sampler turns the registry's point-in-time series into a time
// series: a background goroutine periodically snapshots selected metric
// families (pool gauges, spill/eviction counters, feature-store bytes, task
// counts) into a fixed-capacity in-memory ring of timestamped frames while a
// run executes, tagging every frame with the stage currently open in the
// run's live span tree.
//
// The design goal is to observe a run without perturbing it: the write path
// is a single goroutine storing immutable frames through atomic pointers (no
// locks shared with the engine), the registry reads are the same func-backed
// loads a /metrics scrape performs, and the ring bounds memory regardless of
// run length — old frames are overwritten and counted as Dropped.
//
// A finished recording feeds the exporters (Chrome trace counter tracks, CSV
// and JSON time series) and sim.CompareSeries, which validates the
// simulator's peak-storage and spill-volume predictions against the sampled
// gauges stage by stage instead of only against end-of-run totals.
package sampler

import (
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// DefaultEvery is the sample period used when Config.Every is zero: fine
// enough that tiny in-process runs (hundreds of milliseconds) still catch
// several frames per stage, coarse enough to stay invisible in profiles.
const DefaultEvery = 10 * time.Millisecond

// DefaultCapacity is the ring's frame capacity when Config.Capacity is zero
// (at the default period: ~80 s of history before frames drop).
const DefaultCapacity = 8192

// DefaultMatch selects the run-relevant families: engine counters, per-node
// pool gauges, and feature-store series. HTTP server series are excluded —
// they describe the service, not the run.
func DefaultMatch(name string) bool {
	for _, p := range []string{"vista_engine_", "vista_pool_", "vista_featurestore_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Config configures a Sampler.
type Config struct {
	// Registry is the metrics registry to snapshot (required).
	Registry *obs.Registry
	// Trace, when non-nil, is the run's live span tree; each frame records
	// the name of the top-level stage span open at sample time.
	Trace *obs.Span
	// Every is the sample period (0 = DefaultEvery).
	Every time.Duration
	// Capacity is the ring size in frames (0 = DefaultCapacity). When the
	// run outlives the ring, the oldest frames are overwritten and counted.
	Capacity int
	// Match selects series families by name (nil = DefaultMatch).
	Match func(name string) bool
	// Clock supplies time and the sampling ticker (nil = the real clock).
	// Tests inject a fake to step the loop deterministically.
	Clock clock.Clock
}

// Frame is one sampling instant: every selected series' value, keyed by the
// series' fully qualified identity (family name + rendered labels).
type Frame struct {
	// T is the sample time.
	T time.Time
	// Stage is the top-level stage span open at sample time ("" when the
	// run is between stages or no trace was attached).
	Stage string
	// Values maps series key (obs.Sample.Key) to its sampled value.
	Values map[string]float64
}

// Value returns the frame's value for an exact series key (a label-less
// family's key is just its name).
func (f Frame) Value(key string) (float64, bool) {
	v, ok := f.Values[key]
	return v, ok
}

// Sum adds up every series in the frame belonging to the named family whose
// rendered labels contain all the given pairs — e.g. summing
// vista_pool_used_bytes{pool="storage"} across nodes.
func (f Frame) Sum(name string, labels ...obs.Label) float64 {
	var total float64
	for key, v := range f.Values {
		if key != name && !strings.HasPrefix(key, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(key, l.Key+`="`+l.Value+`"`) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// Recording is a finished sampling session, frames oldest to newest.
type Recording struct {
	// Every is the configured sample period.
	Every time.Duration
	// Start and End bound the session (first and last frame times).
	Start, End time.Time
	// Frames are the retained samples in time order.
	Frames []Frame
	// Dropped counts frames overwritten by the ring before Stop.
	Dropped int
}

// SeriesKeys returns the sorted union of series keys across all frames —
// the exporters' stable column set.
func (r *Recording) SeriesKeys() []string {
	seen := make(map[string]bool)
	for _, f := range r.Frames {
		for k := range f.Values {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ValueAt returns the named series' value in the latest frame taken at or
// before t (0, false when no frame qualifies) — the primitive CompareSeries
// uses to read cumulative counters at stage boundaries.
func (r *Recording) ValueAt(key string, t time.Time) (float64, bool) {
	for i := len(r.Frames) - 1; i >= 0; i-- {
		if !r.Frames[i].T.After(t) {
			v, ok := r.Frames[i].Value(key)
			return v, ok
		}
	}
	return 0, false
}

// Sampler snapshots a registry on a fixed period. Start it before the run,
// Stop it after; Stop returns the Recording.
type Sampler struct {
	cfg   Config
	clk   clock.Clock
	ring  []atomic.Pointer[Frame]
	head  atomic.Int64 // total frames ever written
	stop  chan struct{}
	done  chan struct{}
	start time.Time
}

// Start begins sampling in a background goroutine. It takes one frame
// immediately, so even runs shorter than the period record their state, and
// Stop takes a final frame, so every recording holds at least two.
func Start(cfg Config) *Sampler {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Match == nil {
		cfg.Match = DefaultMatch
	}
	s := &Sampler{
		cfg:  cfg,
		clk:  clock.Or(cfg.Clock),
		ring: make([]atomic.Pointer[Frame], cfg.Capacity),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.start = s.clk.Now()
	s.sample(s.start)
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	tick := s.clk.NewTicker(s.cfg.Every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C():
			// Stamp with Now, not the tick's value: the runtime derives a
			// tick's time from a clock reading it may have taken before a
			// preemption, so under load one tick can carry a later time than
			// the next and the frames would not be in time order.
			s.sample(s.clk.Now())
		case <-s.stop:
			return
		}
	}
}

// sample takes one frame. Single writer: only the Start goroutine (first
// frame) and the loop goroutine call it, never concurrently.
func (s *Sampler) sample(t time.Time) {
	f := &Frame{T: t, Values: make(map[string]float64)}
	for _, sm := range s.cfg.Registry.Samples(s.cfg.Match) {
		f.Values[sm.Key()] = sm.Value
	}
	f.Stage = openStage(s.cfg.Trace)
	h := s.head.Load()
	s.ring[h%int64(len(s.ring))].Store(f)
	s.head.Store(h + 1)
}

// openStage returns the name of the last top-level child span of root that
// has started but not ended.
func openStage(root *obs.Span) string {
	if root == nil {
		return ""
	}
	children := root.Children()
	for i := len(children) - 1; i >= 0; i-- {
		if _, ended := children[i].EndTime(); !ended {
			return children[i].Name()
		}
	}
	return ""
}

// Stop halts sampling, takes a final frame, and returns the recording.
// Stop must be called exactly once.
func (s *Sampler) Stop() *Recording {
	close(s.stop)
	<-s.done
	s.sample(s.clk.Now())

	h := s.head.Load()
	n := h
	if max := int64(len(s.ring)); n > max {
		n = max
	}
	rec := &Recording{Every: s.cfg.Every, Start: s.start, Dropped: int(h - n)}
	for i := h - n; i < h; i++ {
		if f := s.ring[i%int64(len(s.ring))].Load(); f != nil {
			rec.Frames = append(rec.Frames, *f)
		}
	}
	if len(rec.Frames) > 0 {
		rec.End = rec.Frames[len(rec.Frames)-1].T
	}
	return rec
}
