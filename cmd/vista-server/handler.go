package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/calib"
	"repro/internal/clock"
	"repro/internal/cnn"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/share"
	"repro/internal/sim"
)

// workloadRequest is the shared request body for /explain, /simulate, /run.
type workloadRequest struct {
	// Model is a roster name; full-scale for explain/simulate, Tiny* for
	// run.
	Model string `json:"model"`
	// Dataset is "foods" or "amazon".
	Dataset string `json:"dataset"`
	// Layers is |L| (0 = the paper's default for the model).
	Layers int `json:"layers"`
	// Nodes/Cores/MemGB describe the environment (defaults: 8/8/32 for
	// explain+simulate, 2/4/32 for run).
	Nodes  int     `json:"nodes"`
	Cores  int     `json:"cores"`
	MemGB  float64 `json:"mem_gb"`
	Ignite bool    `json:"ignite"`
	// Plan overrides the logical plan for /simulate ("staged", "lazy",
	// "eager"; default staged).
	Plan string `json:"plan"`
	// Rows bounds the generated dataset for /run (default 500, max 20000).
	Rows int `json:"rows"`
	// Seed drives CNN weight realization for /run; the dataset depends only
	// on Dataset and Rows.
	Seed int64 `json:"seed"`
}

func (r *workloadRequest) defaults(forRun bool) {
	if r.Layers <= 0 {
		r.Layers = cnn.DefaultLayers(r.Model)
	}
	if r.Nodes <= 0 {
		if forRun {
			r.Nodes = 2
		} else {
			r.Nodes = 8
		}
	}
	if r.Cores <= 0 {
		if forRun {
			r.Cores = 4
		} else {
			r.Cores = 8
		}
	}
	if r.MemGB <= 0 {
		r.MemGB = 32
	}
	if r.Rows <= 0 {
		r.Rows = 500
	}
	if r.Seed == 0 {
		r.Seed = 7
	}
}

// decisionJSON is the wire form of an optimizer decision.
type decisionJSON struct {
	CPU        int    `json:"cpu"`
	NP         int    `json:"np"`
	Join       string `json:"join"`
	Persist    string `json:"persistence"`
	MemDL      int64  `json:"mem_dl_bytes"`
	MemUser    int64  `json:"mem_user_bytes"`
	MemStorage int64  `json:"mem_storage_bytes"`
}

func toDecisionJSON(d optimizer.Decision) decisionJSON {
	return decisionJSON{
		CPU: d.CPU, NP: d.NP,
		Join: d.Join.String(), Persist: d.Pers.String(),
		MemDL: d.MemDL, MemUser: d.MemUser, MemStorage: d.MemStorage,
	}
}

// api is the service's process-wide state: the shared feature store (so
// repeated /run and /simulate requests on the same dataset+CNN reuse
// features across HTTP calls), the metrics registry behind GET /metrics,
// the admission controller gating concurrent /run execution, the retained
// run artifacts, recently synthesized datasets, and the content addresses
// of past runs.
type api struct {
	store   *featurestore.Store // nil = caching disabled
	metrics *obs.Registry
	// admit gates concurrent /run execution against a memory budget; nil
	// admits everything (admission disabled).
	admit *admission.Controller
	// share coalesces concurrent identical /run requests into one shared
	// partial-inference pass; nil runs every request solo (sharing disabled).
	share *share.Coordinator
	// runs retains recent runs' traces and time series for /trace and
	// /timeseries lookups by run ID.
	runs *runRing
	// calib accumulates estimate-vs-measured drift across runs, behind
	// GET /calibration; never nil (memory-only when no log is configured).
	calib *calib.Recorder
	// fitter holds the active calibration profile — pinned (loaded once,
	// never refitted) or floating (periodic refits when -auto-calibrate is
	// on). nil = no profile: pricing uses the paper constants. Methods on a
	// nil fitter are safe and return the identity.
	fitter *calib.Fitter
	// logger receives request-scoped server logs, tagged with run IDs so
	// log lines join against /trace?run=ID; never nil.
	logger *slog.Logger
	// sloP99 is the per-endpoint p99 latency bound (seconds) that
	// /healthz?slo=1 enforces.
	sloP99 float64
	// maxDrift, when positive, adds a calibration clause to /healthz?slo=1:
	// any stage kind whose EWMA drift exceeds it degrades health to 503.
	maxDrift float64
	// calibInferScale deliberately mis-scales the simulator's inference
	// estimates before calibration folding (0/1 = off) — the test hook that
	// proves the -max-drift clause trips end-to-end.
	calibInferScale float64
	// paths are the instrumented endpoints, for the SLO sweep.
	paths []string
	// datasets memoizes /run inputs, so repeated (dataset, rows) requests
	// skip synthesis and the image-content hash.
	datasets *datasetMemo

	mu sync.Mutex
	// runKeys remembers the feature-store content address of the most
	// recent workloads /run has served, so /simulate can probe the store
	// for workloads /run has materialized.
	runKeys *runKeyIndex
}

// runKey is the store's content-address pair for one workload.
type runKey struct {
	weightsSum, dataSum string
}

// maxRunKeys bounds api.runKeys: every distinct (model, dataset, rows, seed)
// a /run serves adds an entry, so unbounded cold traffic would grow it
// forever.
const maxRunKeys = 1024

// runKeyIndex maps workload keys to content addresses, holding at most limit
// entries and evicting the oldest-inserted first.
type runKeyIndex struct {
	limit int
	keys  map[string]runKey
	order []string // insertion order, oldest first
}

func newRunKeyIndex(limit int) *runKeyIndex {
	return &runKeyIndex{limit: limit, keys: make(map[string]runKey)}
}

func (x *runKeyIndex) put(key string, rk runKey) {
	if _, ok := x.keys[key]; !ok {
		if len(x.order) == x.limit {
			delete(x.keys, x.order[0])
			x.order = x.order[1:]
		}
		x.order = append(x.order, key)
	}
	x.keys[key] = rk
}

// workloadKey identifies a workload for cross-request cache probing.
func workloadKey(req *workloadRequest) string {
	return fmt.Sprintf("%s|%s|%d|%d", req.Model, req.Dataset, req.Rows, req.Seed)
}

// defaultSLOP99 is the default per-endpoint p99 latency bound: generous,
// because /run executes a real workload in-process.
const defaultSLOP99 = 60.0

// defaultRunHistory is how many completed runs' traces and time series the
// server retains for /trace and /timeseries lookups.
const defaultRunHistory = 16

// defaultShareWindow is how long the first /run of a sharing group holds the
// group open: long enough to catch a concurrent flood of identical requests,
// short enough to be negligible against a real run's execution time.
const defaultShareWindow = 150 * time.Millisecond

// serverConfig assembles everything an api instance needs. The zero value
// of every field is valid: nil store disables caching, zero budget disables
// admission, and sloP99 is taken literally (0 = every observed request
// violates the bound — callers wanting the default pass defaultSLOP99).
type serverConfig struct {
	store  *featurestore.Store
	sloP99 float64
	// memBudgetBytes caps the summed admission price of concurrent /run
	// requests (0 = admission disabled).
	memBudgetBytes int64
	// queueDepth bounds how many /run requests may wait for budget.
	queueDepth int
	// queueTimeout bounds how long one /run request may wait.
	queueTimeout time.Duration
	// runHistory is how many completed runs /trace and /timeseries retain
	// (0 = defaultRunHistory).
	runHistory int
	// share enables multi-query shared inference for concurrent identical
	// /run requests; shareWindow is the batching window (0 = the default).
	share       bool
	shareWindow time.Duration
	// clk is the time source for admission deadlines and share windows
	// (nil = the wall clock); tests inject a fake for deterministic timing.
	clk clock.Clock
	// calib is the calibration recorder (nil = a fresh memory-only one);
	// main wires a log-backed recorder so drift history survives restarts.
	calib *calib.Recorder
	// maxDrift enables the /healthz?slo=1 calibration clause (0 = off).
	maxDrift float64
	// calibInferScale is the deliberate mis-calibration test hook (0/1 = off).
	calibInferScale float64
	// calibProfile seeds the active calibration profile (nil = none). With
	// autoCalibrate false the profile is pinned: pricing uses it as loaded,
	// forever.
	calibProfile *calib.Profile
	// autoCalibrate builds a refitting Fitter (main starts its loop);
	// profile-changing refits persist to calibProfilePath when non-empty.
	autoCalibrate    bool
	calibProfilePath string
	// refitInterval is the auto-calibration cadence (0 = the default).
	refitInterval time.Duration
	// logger receives server logs (nil = discard; main wires stderr).
	logger *slog.Logger
}

// newHandler builds the service mux around a shared feature store (nil
// disables cross-run caching), with the default latency SLO and no
// admission budget.
func newHandler(store *featurestore.Store) http.Handler {
	return newAPI(serverConfig{store: store, sloP99: defaultSLOP99}).handler()
}

// newHandlerSLO is newHandler with an explicit p99 latency bound (seconds)
// for /healthz?slo=1.
func newHandlerSLO(store *featurestore.Store, sloP99 float64) http.Handler {
	return newAPI(serverConfig{store: store, sloP99: sloP99}).handler()
}

// newAPI builds the service state from cfg.
func newAPI(cfg serverConfig) *api {
	if cfg.runHistory <= 0 {
		cfg.runHistory = defaultRunHistory
	}
	a := &api{
		store:           cfg.store,
		metrics:         obs.NewRegistry(),
		sloP99:          cfg.sloP99,
		maxDrift:        cfg.maxDrift,
		calibInferScale: cfg.calibInferScale,
		runs:            newRunRing(cfg.runHistory),
		datasets:        newDatasetMemo(datasetBudgetBytes),
		runKeys:         newRunKeyIndex(maxRunKeys),
		calib:           cfg.calib,
		logger:          cfg.logger,
	}
	if a.calib == nil {
		// Memory-only recorder: Open without a path cannot fail.
		a.calib, _ = calib.Open(calib.Config{Clock: cfg.clk})
	}
	if a.logger == nil {
		a.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	a.calib.RegisterMetrics(a.metrics)
	if cfg.calibProfile != nil || cfg.autoCalibrate {
		path := ""
		if cfg.autoCalibrate {
			path = cfg.calibProfilePath // a pinned profile is never rewritten
		}
		a.fitter = calib.NewFitter(calib.FitterConfig{
			Recorder: a.calib,
			Path:     path,
			Interval: cfg.refitInterval,
			Initial:  cfg.calibProfile,
			Clock:    cfg.clk,
		})
		a.fitter.RegisterMetrics(a.metrics)
	}
	if cfg.memBudgetBytes > 0 {
		ctrl, err := admission.New(admission.Config{
			BudgetBytes:  cfg.memBudgetBytes,
			QueueDepth:   cfg.queueDepth,
			QueueTimeout: cfg.queueTimeout,
			Metrics:      a.metrics,
			Clock:        cfg.clk,
		})
		if err != nil {
			// Unreachable with a positive budget and the flag-validated
			// depth, but fail closed rather than silently unbounded.
			panic(err)
		}
		a.admit = ctrl
	}
	if cfg.share {
		win := cfg.shareWindow
		if win <= 0 {
			win = defaultShareWindow
		}
		coord, err := share.New(share.Config{Window: win, Metrics: a.metrics, Clock: cfg.clk})
		if err != nil {
			// Unreachable with the positive window enforced above, but fail
			// closed rather than silently solo.
			panic(err)
		}
		a.share = coord
	}
	if a.store != nil {
		a.store.RegisterMetrics(a.metrics)
	}
	return a
}

// handler wires the api's routes into an instrumented mux: every route gets
// latency and status-code series, served alongside engine/store series on
// GET /metrics.
func (a *api) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /roster", handleRoster)
	mux.HandleFunc("GET /featurestore", a.handleFeatureStore)
	mux.HandleFunc("GET /trace/{format}", a.handleTrace)
	mux.HandleFunc("GET /timeseries", a.handleTimeseries)
	mux.HandleFunc("GET /calibration", a.handleCalibration)
	mux.HandleFunc("POST /explain", handleExplain)
	mux.HandleFunc("POST /simulate", a.handleSimulate)
	mux.HandleFunc("POST /run", a.handleRun)
	known := map[string]bool{
		"/healthz": true, "/metrics": true, "/roster": true,
		"/featurestore": true, "/explain": true, "/simulate": true, "/run": true,
		"/trace/chrome": true, "/trace/otlp": true, "/timeseries": true,
		"/calibration": true,
	}
	for p := range known {
		a.paths = append(a.paths, p)
	}
	sort.Strings(a.paths)
	return instrument(a.metrics, known, mux)
}

// handleFeatureStore reports the store's counters.
func (a *api) handleFeatureStore(w http.ResponseWriter, _ *http.Request) {
	if a.store == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"dir":     a.store.Dir(),
		"stats":   a.store.Snapshot(),
	})
}

// cachedLayersFor probes the feature store for a workload /run has
// materialized before: how many of the plan's layers (bottom-up) are cached.
func (a *api) cachedLayersFor(req *workloadRequest, p *plan.Plan) int {
	if a.store == nil {
		return 0
	}
	a.mu.Lock()
	rk, ok := a.runKeys.keys[workloadKey(req)]
	a.mu.Unlock()
	if !ok {
		return 0
	}
	layers := make([]int, len(p.Layers))
	for i, l := range p.Layers {
		layers[i] = l.LayerIndex
	}
	return a.store.CachedLayers(req.Model, rk.weightsSum, rk.dataSum, layers)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeRequest(r *http.Request, forRun bool) (*workloadRequest, error) {
	var req workloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if req.Model == "" || req.Dataset == "" {
		return nil, errors.New("model and dataset are required")
	}
	req.defaults(forRun)
	return &req, nil
}

func handleRoster(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name            string   `json:"name"`
		Params          int64    `json:"params"`
		SerializedBytes int64    `json:"serialized_bytes"`
		MemBytes        int64    `json:"mem_bytes"`
		GFLOPs          float64  `json:"gflops_per_inference"`
		FeatureLayers   []string `json:"feature_layers"`
	}
	var out []entry
	for _, name := range cnn.RosterNames() {
		m, err := cnn.ByName(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		st, err := cnn.ComputeStats(m)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		e := entry{Name: name, Params: st.Params, SerializedBytes: st.SerializedBytes,
			MemBytes: st.MemBytes, GFLOPs: float64(st.TotalFLOPs) / 1e9}
		for _, fl := range m.FeatureLayers {
			e.FeatureLayers = append(e.FeatureLayers, fl.Name)
		}
		out = append(out, e)
	}
	writeJSON(w, http.StatusOK, out)
}

// buildSimWorkload assembles a simulator workload from a request.
func buildSimWorkload(req *workloadRequest, kind plan.Kind) (sim.Workload, error) {
	var ds sim.DatasetSpec
	switch req.Dataset {
	case "foods":
		ds = sim.FoodsSpec()
	case "amazon":
		ds = sim.AmazonSpec()
	default:
		return sim.Workload{}, fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	return sim.NewWorkload(sim.WorkloadSpec{
		ModelName: req.Model, NumLayers: req.Layers, Dataset: ds,
		PlanKind: kind, Placement: plan.AfterJoin,
		Nodes: req.Nodes, CPUSys: req.Cores,
		MemSys:     memory.GB(req.MemGB),
		MemoryOnly: req.Ignite,
	})
}

func handleExplain(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl, err := buildSimWorkload(req, plan.Staged)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	params := optimizer.DefaultParams()
	sizes, sSingle, sDouble, err := optimizer.IntermediateSizes(wl.Inputs, params)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := map[string]any{
		"table_size_bytes": sizes,
		"s_single_bytes":   sSingle,
		"s_double_bytes":   sDouble,
	}
	d, err := optimizer.Optimize(wl.Inputs, params)
	if err != nil {
		resp["feasible"] = false
		resp["reason"] = err.Error()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp["feasible"] = true
	resp["decision"] = toDecisionJSON(d)
	writeJSON(w, http.StatusOK, resp)
}

func (a *api) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	kind := plan.Staged
	switch req.Plan {
	case "", "staged":
	case "lazy":
		kind = plan.Lazy
	case "eager":
		kind = plan.Eager
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown plan %q", req.Plan))
		return
	}
	wl, err := buildSimWorkload(req, kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A workload /run already materialized simulates against warm features:
	// cached stages cost store I/O instead of CNN inference.
	cachedLayers := a.cachedLayersFor(req, wl.Plan)
	wl.Inputs.CachedLayers = cachedLayers
	cfg, err := sim.VistaConfig(wl)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	prof := sim.PaperCluster().WithNodes(req.Nodes)
	if req.Ignite {
		prof = sim.IgniteCluster().WithNodes(req.Nodes)
	}
	prof.MemPerNode = memory.GB(req.MemGB)
	res := sim.Run(wl, cfg, prof)
	if res.Crash != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"crashed": true, "crash": res.Crash.Error(),
			"decision": toDecisionJSON(optimizer.Decision{
				CPU: cfg.CPU, NP: cfg.NP, Join: cfg.Join, Pers: cfg.Pers}),
		})
		return
	}
	type layerJSON struct {
		Layer    string  `json:"layer"`
		InferSec float64 `json:"infer_sec"`
		TrainSec float64 `json:"train_sec"`
		SpillSec float64 `json:"spill_sec"`
	}
	var layers []layerJSON
	for _, l := range res.Layers {
		layers = append(layers, layerJSON{Layer: l.Layer, InferSec: l.InferSec,
			TrainSec: l.TrainFirstSec + l.TrainRestSec, SpillSec: l.SpillSec})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"crashed":       false,
		"total_minutes": res.TotalMin(),
		"read_sec":      res.ReadSec,
		"join_sec":      res.JoinSec,
		"spilled_bytes": res.SpilledBytes,
		"cached_layers": cachedLayers,
		"layers":        layers,
	})
}

// maxRunRows bounds /run's dataset size: this endpoint executes for real.
const maxRunRows = 20000

// runSampleEvery is the /run sampler period. Served runs are tiny-scale, so a
// short period keeps enough frames per stage for /timeseries to be useful.
const runSampleEvery = 5 * time.Millisecond

func (a *api) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Rows > maxRunRows {
		writeError(w, http.StatusBadRequest, fmt.Errorf("rows %d exceeds the real-execution cap %d", req.Rows, maxRunRows))
		return
	}
	var dataSpec data.Spec
	switch req.Dataset {
	case "foods":
		dataSpec = data.Foods()
	case "amazon":
		dataSpec = data.Amazon()
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown dataset %q", req.Dataset))
		return
	}
	ds, err := a.datasets.get(dataSpec.WithRows(req.Rows))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	spec := core.Spec{
		Nodes: req.Nodes, CoresPerNode: req.Cores,
		MemPerNode: memory.GB(req.MemGB),
		SystemKind: memory.SparkLike,
		ModelName:  req.Model, NumLayers: req.Layers,
		Downstream: core.DefaultDownstream(),
		StructRows: ds.structRows, ImageRows: ds.imageRows,
		DataSum:      ds.sum,
		Seed:         req.Seed,
		FeatureStore: a.store,
		Metrics:      a.metrics,
		SampleEvery:  runSampleEvery,
	}
	// The active calibration profile (pinned or auto-fitted) corrects both
	// halves of this run: plan choice + admission pricing here, and the
	// estimate side of its calibration record below (recordCalibration reads
	// the active profile again at record time).
	if prof := a.fitter.Active(); prof != nil {
		p := optimizer.DefaultParams()
		p.Scales = prof.CostScales()
		spec.Params = &p
	}

	// Sharing: announce the run to the coalescer and wait out the batching
	// window. Identity is the content-addressed fingerprint — two requests
	// share iff they would materialize byte-identical feature tables.
	var ticket *share.Ticket
	if a.share != nil {
		if fp, ok := core.ShareFingerprint(spec); ok {
			var jerr error
			ticket, jerr = a.share.Join(r.Context(),
				share.Identity{Model: fp.Model, WeightsSum: fp.WeightsSum, DataSum: fp.DataSum},
				share.Member{NumLayers: fp.NumLayers, InferenceFLOPs: fp.InferenceFLOPs})
			if jerr != nil {
				// Cancelled while the window was open; the member withdrew.
				w.WriteHeader(statusClientClosedRequest)
				return
			}
		}
	}
	// Every path below must settle the ticket exactly once; runErr carries
	// the outcome (a failed or unstarted leader triggers follower promotion).
	var runErr error
	defer func() { ticket.Finish(runErr) }()

	role := ticket.Role()
	if role == share.Follower {
		// Followers wait for the leader BEFORE admission, holding zero
		// budget, so a queued follower can never starve its own leader.
		att, aerr := ticket.AwaitLeader(r.Context())
		if aerr != nil {
			runErr = aerr
			if errors.Is(aerr, share.ErrGroupFailed) {
				writeError(w, http.StatusInternalServerError, aerr)
			} else {
				w.WriteHeader(statusClientClosedRequest)
			}
			return
		}
		spec.FeatureSource = att.Source
		role = ticket.Role() // Leader now, if promoted
	}
	if role == share.Leader {
		spec.FeatureSource = ticket.Source() // resume a failed pass's partial progress
		spec.FeatureSink = ticket.Sink()
	}

	// Admission: price the run with the optimizer's memory model and hold
	// the charge for the run's whole lifetime. A follower attaches its
	// group leader's tables instead of opening a DL session, so it is
	// charged only the marginal (DL-free) reservation. An unpriceable spec
	// skips admission — the run itself will fail identically below, holding
	// no engine memory.
	if a.admit != nil {
		priceFn := core.Price
		if role == share.Follower {
			priceFn = core.PriceFollower
		}
		if price, perr := priceFn(spec); perr == nil {
			grant, aerr := a.admit.Admit(r.Context(), price)
			if aerr != nil {
				runErr = aerr
				a.writeAdmissionError(w, aerr)
				return
			}
			defer grant.Release()
		}
	}

	ticket.Start()
	seq, runID := a.runs.begin()
	res, err := core.RunContext(r.Context(), spec)
	runErr = err
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone; nobody reads this response. Surface a 499
			// in the status-code series rather than a fake success.
			a.logger.Info("run abandoned by client", "run_id", runID)
			w.WriteHeader(statusClientClosedRequest)
			return
		}
		if oom, ok := memory.IsOOM(err); ok {
			a.logger.Warn("run crashed", "run_id", runID, "model", req.Model,
				"dataset", req.Dataset, "rows", req.Rows, "err", oom)
			writeJSON(w, http.StatusOK, map[string]any{"crashed": true, "crash": oom.Error()})
			return
		}
		a.logger.Warn("run failed", "run_id", runID, "model", req.Model,
			"dataset", req.Dataset, "rows", req.Rows, "err", err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	type layerJSON struct {
		Layer      string  `json:"layer"`
		FeatureDim int     `json:"feature_dim"`
		TrainF1    float64 `json:"train_f1"`
		TestF1     float64 `json:"test_f1"`
	}
	var layers []layerJSON
	for _, l := range res.Layers {
		layers = append(layers, layerJSON{Layer: l.LayerName, FeatureDim: l.FeatureDim,
			TrainF1: l.Train.F1, TestF1: l.Test.F1})
	}
	a.mu.Lock()
	if res.Cache.Enabled {
		a.runKeys.put(workloadKey(req), runKey{
			weightsSum: res.Cache.WeightsSum, dataSum: res.Cache.DataSum,
		})
	}
	a.mu.Unlock()
	a.runs.complete(seq, res.Trace, res.Series)
	a.recordCalibration(req, &spec, res, runID)
	a.logger.Info("run complete", "run_id", runID, "model", req.Model,
		"dataset", req.Dataset, "rows", req.Rows,
		"elapsed_ms", res.Elapsed.Milliseconds(),
		"cached_stages", res.Cache.StagesFromCache)
	resp := map[string]any{
		"crashed":    false,
		"run_id":     runID,
		"decision":   toDecisionJSON(res.Decision),
		"layers":     layers,
		"elapsed_ms": res.Elapsed.Milliseconds(),
		"cache":      res.Cache,
	}
	if ticket != nil {
		resp["share"] = map[string]any{
			"role":       ticket.Role().String(),
			"group_size": ticket.GroupSize(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusClientClosedRequest is nginx's conventional code for "the client
// cancelled before a response was written" — never seen by a live client,
// but it keeps the vista_http_requests_total code label honest.
const statusClientClosedRequest = 499

// writeAdmissionError maps admission failures onto HTTP: a queue deadline is
// retryable (429 + Retry-After), while a full queue or an unpayable price is
// plain overload (503). A cancelled wait gets the 499 treatment above.
//
// The Retry-After hint comes from the controller's live state (recent queue
// waits scaled by occupancy), not a static constant: a fixed hint tells every
// rejected client to come back at the same instant, so each rejection wave
// re-arrives as a synchronized herd that rejects again. A load-dependent hint
// spreads the waves out as congestion evolves.
func (a *api) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admission.ErrDeadline):
		retry := int64(math.Ceil(a.admit.RetryHint().Seconds()))
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, admission.ErrQueueFull), errors.Is(err, admission.ErrOversize):
		writeError(w, http.StatusServiceUnavailable, err)
	default: // context cancellation while queued: the client is gone
		w.WriteHeader(statusClientClosedRequest)
	}
}
