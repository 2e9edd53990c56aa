package calib

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// DefaultRefitInterval is how often an auto-calibrating Fitter refits the
// profile from the rolling aggregates.
const DefaultRefitInterval = 30 * time.Second

// FitterConfig assembles a Fitter.
type FitterConfig struct {
	// Recorder supplies the rolling aggregates each refit fits against.
	Recorder *Recorder
	// Path, when non-empty, is where profile-changing refits are persisted
	// (SaveProfile); unchanged refits never rewrite the file.
	Path string
	// Interval is the periodic refit cadence (<= 0 = DefaultRefitInterval).
	Interval time.Duration
	// Options are the fit guardrails; the zero value means
	// DefaultFitOptions.
	Options FitOptions
	// Initial seeds the active profile (e.g. a pinned file loaded at boot);
	// nil starts from the identity.
	Initial *Profile
	// Clock drives the refit ticker (nil = wall clock); tests inject a fake
	// so scheduling is deterministic.
	Clock clock.Clock
}

// Fitter owns the feedback half of the calibration loop: it periodically
// refits a Profile from its Recorder's aggregates and publishes the result
// with an atomic pointer swap, so pricing paths read the active profile
// lock-free mid-flight. A Fitter is also the holder for a pinned profile:
// construct it with Initial set and never call Start.
type Fitter struct {
	rec      *Recorder
	path     string
	interval time.Duration
	opts     FitOptions
	clk      clock.Clock

	active atomic.Pointer[Profile]

	mu       sync.Mutex // serializes RefitNow (persist + swap)
	baseline map[Kind]lsState
	stop     chan struct{}
	done     chan struct{}
}

// NewFitter builds a Fitter; the active profile starts at cfg.Initial. The
// recorder's aggregates are snapshotted at construction, so evidence replayed
// from an existing log — recorded under whatever profiles past processes had
// active — never feeds a refit: the loop fits only what this process
// observes.
func NewFitter(cfg FitterConfig) *Fitter {
	f := &Fitter{
		rec:      cfg.Recorder,
		path:     cfg.Path,
		interval: cfg.Interval,
		opts:     cfg.Options.normalize(),
		clk:      clock.Or(cfg.Clock),
	}
	if f.interval <= 0 {
		f.interval = DefaultRefitInterval
	}
	if cfg.Initial != nil {
		f.active.Store(cfg.Initial)
	}
	if f.rec != nil {
		_, f.baseline = f.rec.agg.fitSince(nil)
	}
	return f
}

// Active returns the profile pricing should use right now (nil-receiver and
// never-fitted Fitters return nil, the identity).
func (f *Fitter) Active() *Profile {
	if f == nil {
		return nil
	}
	return f.active.Load()
}

// Refits returns the active profile's refit count (0 when none is active).
func (f *Fitter) Refits() int64 { return f.Active().refits() }

// RefitNow fits a new profile from the evidence recorded since each kind's
// last factor change and, when any factor moved, persists it and then swaps
// it in. It returns whether the profile changed and any persistence error.
// Persisting first means an observer that sees a refit (Refits, the
// vista_calib_profile_refits_total counter) always finds it on disk; a failed
// write publishes nothing and consumes no evidence, so the next tick retries.
//
// The windowing is what makes the loop converge instead of compound: samples
// recorded before a refit carry estimates in the *old* correction basis, and
// re-fitting them after the factor moved would apply the same residual twice
// (the cumulative least-squares fit is dominated by the old basis for up to
// ten half-lives). Each refit therefore consumes its window — a kind's
// baseline advances only when its factor actually moves, so sparse evidence
// keeps accumulating toward the MinSamples floor, and once traffic stops
// every subsequent refit is a permanent no-op (the stability the
// byte-identical live-vs-offline report gate relies on).
func (f *Fitter) RefitNow() (changed bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rec == nil {
		return false, nil
	}
	rep := f.rec.Report()
	ev, snap := f.rec.agg.fitSince(f.baseline)
	for i := range rep.Stages {
		e := ev[Kind(rep.Stages[i].Kind)]
		rep.Stages[i].Samples = e.samples
		rep.Stages[i].SuggestedScale = e.suggested
	}
	prev := f.active.Load()
	next, changed := Refit(prev, rep, f.clk.Now(), f.opts)
	if !changed {
		return false, nil
	}
	if f.path != "" {
		if err := SaveProfile(f.path, next); err != nil {
			return false, err
		}
	}
	for _, k := range Kinds {
		if next.ScaleFor(k) != prev.ScaleFor(k) {
			f.baseline[k] = snap[k]
		}
	}
	f.active.Store(next)
	return true, nil
}

// Start launches the periodic refit loop. Stop must be called to release it;
// Start on a running Fitter panics (it is a boot-time call).
func (f *Fitter) Start() {
	if f.stop != nil {
		panic("calib: Fitter started twice")
	}
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go f.loop()
}

func (f *Fitter) loop() {
	defer close(f.done)
	t := f.clk.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C():
			f.RefitNow() // a failed persist publishes nothing; the next tick retries it
		case <-f.stop:
			return
		}
	}
}

// Stop halts the refit loop and waits for it to exit. Stopping a Fitter that
// was never started is a no-op.
func (f *Fitter) Stop() {
	if f == nil || f.stop == nil {
		return
	}
	close(f.stop)
	<-f.done
	f.stop, f.done = nil, nil
}

// RegisterMetrics exposes the active profile as scrape-time series:
// vista_calib_profile_scale{stage} (the factor pricing currently applies;
// 1 = uncorrected) and vista_calib_profile_refits_total (profile-changing
// refits since boot).
func (f *Fitter) RegisterMetrics(reg *obs.Registry) {
	for _, k := range Kinds {
		k := k
		reg.GaugeFunc("vista_calib_profile_scale",
			"Fitted cost-model correction per stage kind currently applied to pricing (1 = uncorrected).",
			func() float64 { return f.Active().ScaleFor(k) },
			obs.Label{Key: "stage", Value: string(k)})
	}
	reg.CounterFunc("vista_calib_profile_refits_total",
		"Profile-changing calibration refits since the process started.",
		func() float64 { return float64(f.Refits()) })
}
