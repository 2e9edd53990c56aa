package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/share"
)

// These mirror vista-server's defaults, so the replay prices, admits,
// shares, caches and samples exactly as the served runs do.
const (
	serverNodes        = 2
	serverCores        = 4
	serverMemGB        = 32
	serverStoreMiB     = 256
	serverQueueDepth   = 16
	serverQueueTimeout = 30 * time.Second
	serverShareWindow  = 150 * time.Millisecond
	serverSampleEvery  = 5 * time.Millisecond
)

// replica is the in-process stand-in for one vista-server: the same
// process-wide feature store, registry, admission controller, share
// coordinator and calibration recorder handleRun uses.
type replica struct {
	store   *featurestore.Store
	metrics *obs.Registry
	admit   *admission.Controller
	share   *share.Coordinator
	calib   *calib.Recorder
}

func newReplica(w workload, storeDir string) (*replica, error) {
	store, err := featurestore.Open(storeDir, serverStoreMiB<<20)
	if err != nil {
		return nil, err
	}
	r := &replica{store: store, metrics: obs.NewRegistry()}
	// A memory-only recorder cannot fail to open.
	r.calib, _ = calib.Open(calib.Config{})
	r.calib.RegisterMetrics(r.metrics)
	r.admit, err = admission.New(admission.Config{
		BudgetBytes:  w.memBudgetMiB << 20,
		QueueDepth:   serverQueueDepth,
		QueueTimeout: serverQueueTimeout,
		Metrics:      r.metrics,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	if w.share {
		r.share, err = share.New(share.Config{Window: serverShareWindow, Metrics: r.metrics})
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	store.RegisterMetrics(r.metrics)
	return r, nil
}

// span is one timed layer call of a traced request.
type span int

const (
	spGenerate span = iota // data.Generate
	spShare                // core.ShareFingerprint + share.Coordinator.Join
	spAwait                // share.Ticket.AwaitLeader
	spPrice                // core.Price / core.PriceFollower
	spAdmit                // admission.Controller.Admit
	spRun                  // core.RunContext
	spCalib                // calib.CompareRun + Recorder.Record
	// Stage spans inside core.RunContext, from Result.Trace.
	spIngest
	spJoin
	spInfer
	spCacheRead
	spAttach
	spTrain
	numSpans
)

// traceRec is one traced request: its wall time from handler entry to the
// end of the calibration record, and the time of each timed call in it.
type traceRec struct {
	wall    time.Duration
	t       [numSpans]time.Duration
	flops   int64 // inference FLOPs from the infer/premat spans
	role    share.Role
	shared  bool // the request joined the share coordinator
	refused bool // admission refused the run
}

// topCalls are the handler-level calls whose times must add up to the wall.
var topCalls = []span{spGenerate, spShare, spAwait, spPrice, spAdmit, spRun, spCalib}

// serve replays handleRun for req, timing each layer call in handleRun's
// order. It returns the run's trained layers for the output checks.
func (r *replica) serve(ctx context.Context, req request) (traceRec, []layerOut, error) {
	var rec traceRec
	begin := time.Now()
	lap := begin
	mark := func(s span) {
		now := time.Now()
		rec.t[s] += now.Sub(lap)
		lap = now
	}

	structRows, imageRows, err := data.Generate(data.Foods().WithRows(req.Rows))
	mark(spGenerate)
	if err != nil {
		return rec, nil, err
	}
	spec := core.Spec{
		Nodes: serverNodes, CoresPerNode: serverCores,
		MemPerNode: memory.GB(serverMemGB),
		SystemKind: memory.SparkLike,
		ModelName:  req.Model, NumLayers: req.Layers,
		Downstream: core.DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows,
		Seed:         req.Seed,
		FeatureStore: r.store,
		Metrics:      r.metrics,
		SampleEvery:  serverSampleEvery,
	}
	lap = time.Now()

	var ticket *share.Ticket
	if r.share != nil {
		if fp, ok := core.ShareFingerprint(spec); ok {
			rec.shared = true
			ticket, err = r.share.Join(ctx,
				share.Identity{Model: fp.Model, WeightsSum: fp.WeightsSum, DataSum: fp.DataSum},
				share.Member{NumLayers: fp.NumLayers, InferenceFLOPs: fp.InferenceFLOPs})
			if err != nil {
				return rec, nil, err
			}
		}
	}
	mark(spShare)
	var runErr error
	defer func() { ticket.Finish(runErr) }()

	role := ticket.Role()
	if role == share.Follower {
		att, aerr := ticket.AwaitLeader(ctx)
		if aerr != nil {
			runErr = aerr
			return rec, nil, aerr
		}
		spec.FeatureSource = att.Source
		role = ticket.Role()
	}
	if role == share.Leader {
		spec.FeatureSource = ticket.Source()
		spec.FeatureSink = ticket.Sink()
	}
	rec.role = role
	mark(spAwait)

	priceFn := core.Price
	if role == share.Follower {
		priceFn = core.PriceFollower
	}
	price, perr := priceFn(spec)
	mark(spPrice)
	if perr == nil {
		grant, aerr := r.admit.Admit(ctx, price)
		mark(spAdmit)
		if aerr != nil {
			runErr = aerr
			rec.refused = true
			return rec, nil, aerr
		}
		defer grant.Release()
	}

	ticket.Start()
	lap = time.Now()
	res, err := core.RunContext(ctx, spec)
	mark(spRun)
	runErr = err
	if err != nil {
		return rec, nil, err
	}
	if err := r.recordCalibration(req, &spec, res); err != nil {
		return rec, nil, err
	}
	mark(spCalib)
	rec.wall = time.Since(begin)
	rec.addStages(res.Trace)

	layers := make([]layerOut, len(res.Layers))
	for i, l := range res.Layers {
		layers[i] = layerOut{Layer: l.LayerName, FeatureDim: l.FeatureDim, TrainF1: l.Train.F1, TestF1: l.Test.F1}
	}
	return rec, layers, nil
}

// addStages splits core.RunContext by the stage spans it returns.
func (rec *traceRec) addStages(root *obs.Span) {
	for _, sp := range root.Children() {
		name := sp.Name()
		kind, _, _ := strings.Cut(name, ":")
		var s span
		switch kind {
		case "ingest":
			s = spIngest
		case "join":
			s = spJoin
		case "infer", "premat":
			s = spInfer
			if f, ok := sp.Attr("flops"); ok {
				rec.flops += f
			}
		case "cache":
			s = spCacheRead
		case "shared":
			s = spAttach
		case "train":
			s = spTrain
		default:
			continue
		}
		rec.t[s] += sp.Duration()
	}
}

// recordCalibration is vista-server's recordCalibration without the
// logging: compare the run against the simulator and fold the samples in.
func (r *replica) recordCalibration(req request, spec *core.Spec, res *core.Result) error {
	if len(spec.StructRows) == 0 || res.Trace == nil {
		return nil
	}
	var imgBytes, n int64
	for i := range spec.ImageRows {
		imgBytes += spec.ImageRows[i].MemBytes()
		n++
		if n == 100 {
			break
		}
	}
	if n > 0 {
		imgBytes /= n
	}
	env := calib.RunEnv{
		ModelName:     req.Model,
		Dataset:       req.Dataset,
		Rows:          len(spec.StructRows),
		StructDim:     len(spec.StructRows[0].Structured),
		ImageRowBytes: imgBytes,
		PlanKind:      plan.Staged,
		Placement:     plan.AfterJoin,
		Nodes:         serverNodes,
		Cores:         serverCores,
		MemBytes:      memory.GB(serverMemGB),
	}
	samples, err := calib.CompareRun(env, res.Trace, res.Series)
	if err != nil {
		// The server skips the record in this case, and so does the replay.
		return nil
	}
	key := fmt.Sprintf("%s|%s|%d|%d", req.Model, req.Dataset, req.Rows, req.Seed)
	return r.calib.Record(key, samples)
}

// tracedResult is the traced run of one workload.
type tracedResult struct {
	recs      []traceRec
	latencies []time.Duration // from send or due time, as the HTTP phase
	attempted int
	failed    int
	errs      []error
	storeHits, storeMisses,
	storePuts int64
}

// replay runs evs in-process with the HTTP phase's arrival process, after
// serving the same requests set-up served on the server. Failed requests
// are in the result's errs; the error reports a replay that could not run.
func replay(ctx context.Context, w workload, evs []event, primeReqs []request, storeDir string, chk *checker) (*tracedResult, error) {
	if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	r, err := newReplica(w, storeDir)
	if err != nil {
		return nil, err
	}
	defer r.store.Close()
	for _, p := range primeReqs {
		_, layers, err := r.serve(ctx, p)
		if err == nil {
			err = chk.check("traced", p, layers)
		}
		if err != nil {
			return nil, fmt.Errorf("traced prime %s seed %d: %w", p.Model, p.Seed, err)
		}
	}
	before := r.store.Snapshot()
	do := func(req request) outcome {
		rec, layers, err := r.serve(ctx, req)
		if err == nil {
			err = chk.check("traced", req, layers)
		}
		return outcome{req: req, err: err, trace: rec}
	}
	var outs []outcome
	if w.openLoop {
		outs, _ = openLoop(ctx, evs, do)
	} else {
		outs, _ = closedLoop(ctx, evs, time.Hour, do)
	}
	after := r.store.Snapshot()
	res := &tracedResult{
		storeHits:   after.Hits - before.Hits,
		storeMisses: after.Misses - before.Misses,
		storePuts:   after.Puts - before.Puts,
	}
	for _, o := range outs {
		res.attempted++
		if o.err != nil {
			res.failed++
			res.errs = append(res.errs, o.err)
			continue
		}
		res.recs = append(res.recs, o.trace)
		res.latencies = append(res.latencies, o.latency)
	}
	return res, nil
}
