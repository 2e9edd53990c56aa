package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cnn"
	"repro/internal/dataflow"
	"repro/internal/dl"
	"repro/internal/faultinject"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/obs/sampler"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// FaultStage is the failpoint site hit at every executor stage boundary; a
// labeled variant "core/stage:<label>" is hit first (labels: ingest, join,
// premat, infer, cache, train), so a schedule can fail the Nth stage of any
// kind or one specific kind of stage.
const FaultStage = "core/stage"

// failStage guards a stage boundary: a cancelled run context aborts before
// the next stage starts, and the failpoint layer gets a shot at injecting a
// fault. Cancellation inside a stage is handled by the engine's run-scoped
// context (TaskContext.Done); this check covers the gaps between stages.
func (ex *executor) failStage(label string) error {
	if err := ex.ctx.Err(); err != nil {
		return fmt.Errorf("core: stage %s: %w", label, err)
	}
	if err := faultinject.Hit(FaultStage + ":" + label); err != nil {
		return fmt.Errorf("core: stage %s: %w", label, err)
	}
	if err := faultinject.Hit(FaultStage); err != nil {
		return fmt.Errorf("core: stage %s: %w", label, err)
	}
	return nil
}

// Run executes the feature-transfer workload end-to-end on the real engine:
// optimizer → configuration → ingestion → join and (partial) CNN inference
// per the logical plan → downstream training per layer. Memory-related
// failures surface as typed *memory.OOMError values, never panics. Run is
// RunContext with a background context (never cancelled).
func Run(spec Spec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run under a caller-owned context: cancelling ctx (a client
// disconnect, a deadline) aborts the run at the next stage boundary and
// inside long-running engine operations (via the engine's run-scoped
// cancellation and TaskContext.Done), releasing every table, pool charge,
// and spill file on the way out. The returned error wraps ctx's error, so
// errors.Is(err, context.Canceled) identifies an aborted run.
func RunContext(ctx context.Context, spec Spec) (*Result, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run cancelled before start: %w", err)
	}
	model, err := cnn.ByName(spec.ModelName)
	if err != nil {
		return nil, err
	}
	stats, err := cnn.ComputeStats(model)
	if err != nil {
		return nil, err
	}

	compiled, err := plan.CompileFromStats(spec.PlanKind, spec.Placement, stats, spec.NumLayers,
		plan.Options{PreMaterializeBase: spec.PreMaterializeBase})
	if err != nil {
		return nil, err
	}
	// Probe the feature store (when configured) before deciding: cached
	// stages shrink the optimizer's cost picture.
	cache := loadRunCache(&spec, model, compiled)
	decision, err := decide(spec, stats, cache.cachedEmits(compiled))
	if err != nil {
		return nil, err
	}

	// A fully-warm run needs neither the raw image payloads nor a DL
	// session; pre-materialization and any live inference step bring both
	// back.
	imagesNeeded, sessionNeeded := true, true
	if cache != nil {
		imagesNeeded = compiled.PreMaterializedBase >= 0
		sessionNeeded = compiled.PreMaterializedBase >= 0
		for i, step := range compiled.Steps {
			if !cache.cached(i) {
				sessionNeeded = true
				if step.FromImage {
					imagesNeeded = true
				}
			}
		}
	}
	if !imagesNeeded {
		stripped := make([]dataflow.Row, len(spec.ImageRows))
		copy(stripped, spec.ImageRows)
		for i := range stripped {
			stripped[i].Image = nil
		}
		spec.ImageRows = stripped
	}

	cores := decision.CPU
	if cores > spec.CoresPerNode {
		cores = spec.CoresPerNode
	}
	engine, err := dataflow.NewEngine(dataflow.Config{
		Nodes:         spec.Nodes,
		CoresPerNode:  cores,
		Kind:          spec.SystemKind,
		Apportion:     decision.Apportionment(spec.params()),
		DefaultFormat: decision.Pers,
		SpillDir:      spec.SpillDir,
	})
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	engine.SetContext(ctx)

	var session *dl.Session
	if sessionNeeded {
		session, err = dl.NewSession(engine, model, dl.Options{Seed: spec.Seed, GPUMemBytes: spec.GPUMemPerNode})
		if err != nil {
			return nil, err
		}
		defer session.Close()
	}

	if spec.Metrics != nil {
		engine.RegisterMetrics(spec.Metrics)
		if spec.FeatureStore != nil {
			spec.FeatureStore.RegisterMetrics(spec.Metrics)
		}
	}

	ex := &executor{
		ctx:      ctx,
		spec:     spec,
		engine:   engine,
		session:  session,
		decision: decision,
		plan:     compiled,
		cache:    cache,
		trace:    obs.StartSpan("run"),
	}
	// The sampler observes the run from the outside: it reads the same
	// func-backed registry series a /metrics scrape would, on its own
	// goroutine, tagging frames with the stage open in the live span tree.
	var smp *sampler.Sampler
	if spec.Metrics != nil && spec.SampleEvery > 0 {
		smp = sampler.Start(sampler.Config{
			Registry: spec.Metrics,
			Trace:    ex.trace,
			Every:    spec.SampleEvery,
		})
	}
	layers, err := ex.run()
	ex.trace.End()
	var recording *sampler.Recording
	if smp != nil {
		recording = smp.Stop()
	}
	if err != nil {
		return nil, err
	}
	report := CacheReport{
		StagesFromCache: ex.fromCache,
		StagesShared:    ex.fromShared,
		StagesExecuted:  ex.executed,
		EntriesStored:   ex.stored,
	}
	if cache != nil {
		report.Enabled = true
		report.EntriesLoaded = cache.loaded
		report.WeightsSum = cache.weightsSum
		report.DataSum = cache.dataSum
	}
	return &Result{
		Decision: decision,
		Plan:     compiled,
		Layers:   layers,
		Counters: engine.Counters().Snapshot(),
		Elapsed:  time.Since(start),
		Trace:    ex.trace,
		Series:   recording,
		Cache:    report,
	}, nil
}

// decide runs the optimizer unless the spec pins a decision. cachedLayers is
// how many selected layers a feature store already holds; it shrinks the
// Equation 16 inputs (a fully-warm run needs no images, replicas, or
// broadcast).
func decide(spec Spec, stats *cnn.Stats, cachedLayers int) (optimizer.Decision, error) {
	if spec.Decision != nil {
		return *spec.Decision, nil
	}
	in, err := optimizerInputs(spec, stats)
	if err != nil {
		return optimizer.Decision{}, err
	}
	in.CachedLayers = cachedLayers
	return optimizer.Optimize(in, spec.params())
}

// avgImageBytes samples the image table's average raw payload.
func avgImageBytes(rows []dataflow.Row) int64 {
	n := len(rows)
	if n == 0 {
		return 0
	}
	if n > 100 {
		n = 100
	}
	var total int64
	for i := 0; i < n; i++ {
		total += rows[i].MemBytes()
	}
	return total / int64(n)
}

// executor drives one compiled plan over the engine.
type executor struct {
	ctx      context.Context // the run's cancellation context
	spec     Spec
	engine   *dataflow.Engine
	session  *dl.Session // nil on fully-warm runs (no inference scheduled)
	decision optimizer.Decision
	plan     *plan.Plan
	cache    *runCache // nil when no feature store is configured
	trace    *obs.Span // the run's root span; one child per stage

	// fromCache/fromShared/executed/stored feed the run's CacheReport.
	fromCache, fromShared, executed, stored int
}

// stage opens one top-level stage span; the caller must End it.
func (ex *executor) stage(label string) *obs.Span {
	return ex.trace.StartChild(label)
}

// counterDelta returns a closure capturing counter c now; calling it returns
// how much c has grown since — for attributing FLOPs/bytes to one stage.
// (Parallel stages would blur the attribution, but the executor runs stages
// sequentially; only tasks within a stage are parallel.)
func counterDelta(load func() int64) func() int64 {
	before := load()
	return func() int64 { return load() - before }
}

func (ex *executor) run() ([]LayerResult, error) {
	e := ex.engine
	if err := ex.failStage("ingest"); err != nil {
		return nil, err
	}
	ingest := ex.stage("ingest")
	readBytes := counterDelta(e.Counters().BytesRead.Load)
	tstr, err := e.CreateTable("tstr", ex.spec.StructRows, ex.decision.NP)
	if err != nil {
		return nil, err
	}
	timg, err := e.CreateTable("timg", ex.spec.ImageRows, ex.decision.NP)
	if err != nil {
		return nil, err
	}
	ingest.SetAttr("rows", int64(len(ex.spec.StructRows)+len(ex.spec.ImageRows)))
	ingest.SetAttr("bytes", readBytes())
	ingest.End()
	if ex.plan.Placement == plan.AfterJoin {
		return ex.runAfterJoin(tstr, timg)
	}
	return ex.runBeforeJoin(tstr, timg)
}

// runAfterJoin joins Tstr ⋈ Timg first, then runs inference passes over the
// joined table (the paper's AJ placement; Staged/AJ is Vista's default).
func (ex *executor) runAfterJoin(tstr, timg *dataflow.Table) ([]LayerResult, error) {
	if err := ex.failStage("join"); err != nil {
		tstr.Drop()
		timg.Drop()
		return nil, err
	}
	join := ex.stage("join")
	joinRows := counterDelta(ex.engine.Counters().RowsProcessed.Load)
	shuffled := counterDelta(ex.engine.Counters().BytesShuffled.Load)
	base, err := ex.engine.Join("joined", tstr, timg, ex.decision.Join)
	if err != nil {
		// A failed join must release both inputs, or their cached (and
		// possibly spilled) partitions outlive the run.
		join.End()
		tstr.Drop()
		timg.Drop()
		return nil, err
	}
	join.SetAttr("rows", joinRows())
	join.SetAttr("shuffle_bytes", shuffled())
	join.End()
	tstr.Drop()
	timg.Drop()

	var results []LayerResult
	rawIdx := -1
	if ex.plan.PreMaterializedBase >= 0 {
		base, rawIdx, err = ex.preMaterialize(base, &results)
		if err != nil {
			return nil, err
		}
	}
	more, err := ex.runPasses(base, rawIdx, ex.train)
	if err != nil {
		return nil, err
	}
	return append(results, more...), nil
}

// runBeforeJoin runs inference over Timg alone and joins each emitted
// feature table with Tstr only for training (the paper's BJ placement).
func (ex *executor) runBeforeJoin(tstr, timg *dataflow.Table) ([]LayerResult, error) {
	defer tstr.Drop()
	var results []LayerResult
	rawIdx := -1
	base := timg
	if ex.plan.PreMaterializedBase >= 0 {
		var err error
		base, rawIdx, err = ex.preMaterializeBJ(tstr, timg, &results)
		timg.Drop()
		if err != nil {
			return nil, err
		}
	}
	trainJoined := func(out *dataflow.Table, featIdx int, em plan.Emit) (LayerResult, error) {
		proj, err := ex.projectFeature(out, featIdx, em.LayerName)
		if err != nil {
			return LayerResult{}, err
		}
		joined, err := ex.engine.Join("train-"+em.LayerName, tstr, proj, ex.decision.Join)
		proj.Drop()
		if err != nil {
			return LayerResult{}, err
		}
		defer joined.Drop()
		return ex.train(joined, 0, em)
	}
	more, err := ex.runPasses(base, rawIdx, trainJoined)
	if err != nil {
		return nil, err
	}
	return append(results, more...), nil
}

// runPasses drives the plan's inference steps over base, training each
// emitted layer with trainFn and managing intermediate-table lifetimes: Lazy
// steps re-read base, Staged steps consume the previous step's raw carry.
// It takes ownership of base and drops every intermediate it creates.
func (ex *executor) runPasses(base *dataflow.Table, rawIdx int,
	trainFn func(out *dataflow.Table, featIdx int, em plan.Emit) (LayerResult, error)) ([]LayerResult, error) {

	var results []LayerResult
	carrier := base
	cleanup := func() {
		if carrier != nil && carrier != base {
			carrier.Drop()
		}
		if base != nil {
			base.Drop()
		}
	}
	for i, step := range ex.plan.Steps {
		input := carrier
		if step.FromImage {
			input = base
		}
		var out *dataflow.Table
		var err error
		if ex.cache.cached(i) {
			out, err = ex.attachStep(fmt.Sprintf("stage%d", i), input, step, ex.cache.steps[i])
		} else {
			out, err = ex.runStep(fmt.Sprintf("stage%d", i), input, step, rawIdx)
		}
		if err != nil {
			cleanup()
			return nil, err
		}
		if ex.cache.sharedStep(i) {
			ex.fromShared++
		} else if ex.cache.cached(i) {
			ex.fromCache++
		} else {
			ex.executed++
			ex.publishStep(out, step)
		}
		for ei, em := range step.Emits {
			res, err := trainFn(out, ei, em)
			if err != nil {
				out.Drop()
				cleanup()
				return nil, err
			}
			results = append(results, res)
		}
		if step.KeepRaw {
			rawIdx = len(step.Emits)
		}
		// Release the consumed carrier (staged chains) and advance.
		if carrier != nil && carrier != base && carrier != out {
			carrier.Drop()
		}
		if step.KeepRaw {
			carrier = out
		} else {
			out.Drop()
			carrier = nil
		}
		// Release the base once no later step reads it.
		if base != nil && carrier != base && !ex.laterStepReadsImages(i) {
			base.Drop()
			base = nil
		}
	}
	cleanup()
	return results, nil
}

// laterStepReadsImages reports whether any step after i consumes the base
// (image) table.
func (ex *executor) laterStepReadsImages(i int) bool {
	for _, s := range ex.plan.Steps[i+1:] {
		if s.FromImage {
			return true
		}
	}
	return false
}

// runStep executes one inference pass.
func (ex *executor) runStep(name string, in *dataflow.Table, step plan.Step, rawIdx int) (*dataflow.Table, error) {
	if ex.session == nil {
		return nil, fmt.Errorf("core: internal: inference step %s scheduled without a DL session", name)
	}
	if err := ex.failStage("infer"); err != nil {
		return nil, err
	}
	sp := ex.stage("infer:" + step.Emits[0].LayerName)
	flops := counterDelta(ex.engine.Counters().FLOPs.Load)
	defer func() {
		sp.SetAttr("flops", flops())
		sp.End()
	}()
	spec := dl.InferenceSpec{
		From:       step.From,
		FromImage:  step.FromImage,
		InputIndex: rawIdx,
		KeepRawAt:  -1,
		DropInput:  true,
	}
	for _, em := range step.Emits {
		spec.EmitLayers = append(spec.EmitLayers, em.LayerIndex)
	}
	if step.KeepRaw {
		spec.KeepRawAt = step.Emits[len(step.Emits)-1].LayerIndex
	}
	udf, err := ex.session.PartitionFunc(spec)
	if err != nil {
		return nil, err
	}
	return ex.engine.MapPartitions(name, in, udf)
}

// preMaterialize computes the base layer over the joined table: it emits the
// base feature (trained directly) and keeps the raw base tensor as the
// staged chain's input (Appendix B).
func (ex *executor) preMaterialize(base *dataflow.Table, results *[]LayerResult) (*dataflow.Table, int, error) {
	bl := ex.plan.Layers[ex.plan.PreMaterializedBase]
	udf, err := ex.session.PartitionFunc(dl.InferenceSpec{
		From: 0, FromImage: true,
		EmitLayers: []int{bl.LayerIndex},
		KeepRawAt:  bl.LayerIndex,
		DropInput:  true,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := ex.failStage("premat"); err != nil {
		base.Drop()
		return nil, 0, err
	}
	sp := ex.stage("premat:" + bl.Name)
	flops := counterDelta(ex.engine.Counters().FLOPs.Load)
	out, err := ex.engine.MapPartitions("premat", base, udf)
	if err != nil {
		sp.End()
		base.Drop()
		return nil, 0, err
	}
	sp.SetAttr("flops", flops())
	sp.End()
	base.Drop()
	res, err := ex.train(out, 0, plan.Emit{LayerName: bl.Name, LayerIndex: bl.LayerIndex, FeatureDim: bl.FeatureDim})
	if err != nil {
		out.Drop()
		return nil, 0, err
	}
	*results = append(*results, res)
	return out, 1, nil
}

// preMaterializeBJ is preMaterialize for the BJ placement: the base pass
// runs over Timg and the base layer trains through a join.
func (ex *executor) preMaterializeBJ(tstr, timg *dataflow.Table, results *[]LayerResult) (*dataflow.Table, int, error) {
	bl := ex.plan.Layers[ex.plan.PreMaterializedBase]
	udf, err := ex.session.PartitionFunc(dl.InferenceSpec{
		From: 0, FromImage: true,
		EmitLayers: []int{bl.LayerIndex},
		KeepRawAt:  bl.LayerIndex,
		DropInput:  true,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := ex.failStage("premat"); err != nil {
		return nil, 0, err
	}
	sp := ex.stage("premat:" + bl.Name)
	flops := counterDelta(ex.engine.Counters().FLOPs.Load)
	out, err := ex.engine.MapPartitions("premat", timg, udf)
	if err != nil {
		sp.End()
		return nil, 0, err
	}
	sp.SetAttr("flops", flops())
	sp.End()
	em := plan.Emit{LayerName: bl.Name, LayerIndex: bl.LayerIndex, FeatureDim: bl.FeatureDim}
	proj, err := ex.projectFeature(out, 0, bl.Name)
	if err != nil {
		out.Drop()
		return nil, 0, err
	}
	joined, err := ex.engine.Join("train-"+bl.Name, tstr, proj, ex.decision.Join)
	proj.Drop()
	if err != nil {
		out.Drop()
		return nil, 0, err
	}
	res, err := ex.train(joined, 0, em)
	joined.Drop()
	if err != nil {
		out.Drop()
		return nil, 0, err
	}
	*results = append(*results, res)
	return out, 1, nil
}

// newSingletonList wraps one tensor of l into a fresh TensorList.
func newSingletonList(l *tensor.TensorList, idx int) *tensor.TensorList {
	return tensor.NewTensorList(l.Get(idx))
}

// projectFeature keeps only the feature tensor at idx, dropping raw carries
// before a join.
func (ex *executor) projectFeature(t *dataflow.Table, idx int, layer string) (*dataflow.Table, error) {
	return ex.engine.MapPartitions("proj-"+layer, t, func(_ *dataflow.TaskContext, in []dataflow.Row) ([]dataflow.Row, error) {
		out := make([]dataflow.Row, len(in))
		for i := range in {
			r := in[i]
			if r.Features == nil || r.Features.Len() <= idx {
				return nil, fmt.Errorf("core: row %d lacks feature %d", r.ID, idx)
			}
			r.Features = newSingletonList(r.Features, idx)
			out[i] = r
		}
		return out, nil
	})
}

// train fits the downstream model on [X, feature(idx)] and evaluates it.
func (ex *executor) train(t *dataflow.Table, featIdx int, em plan.Emit) (LayerResult, error) {
	if err := ex.failStage("train"); err != nil {
		return LayerResult{}, err
	}
	sp := ex.stage("train:" + em.LayerName)
	trainRowsRead := counterDelta(ex.engine.Counters().RowsProcessed.Load)
	defer func() {
		sp.SetAttr("rows", trainRowsRead())
		sp.End()
	}()
	e := ex.engine
	ds := ex.spec.Downstream
	structDim := len(ex.spec.StructRows[0].Structured)
	dim := structDim + em.FeatureDim
	extract := ml.StructuredPlusFeature(featIdx)

	trainTable := t
	var testRows []dataflow.Row
	if ds.TestFraction > 0 {
		var err error
		trainTable, err = e.Filter("train-split", t, func(r *dataflow.Row) bool {
			return !ml.IsTestID(r.ID, ds.TestFraction)
		})
		if err != nil {
			return LayerResult{}, err
		}
		defer trainTable.Drop()
		testTable, err := e.Filter("test-split", t, func(r *dataflow.Row) bool {
			return ml.IsTestID(r.ID, ds.TestFraction)
		})
		if err != nil {
			return LayerResult{}, err
		}
		testRows, err = e.Collect(testTable)
		testTable.Drop()
		if err != nil {
			return LayerResult{}, err
		}
	}

	var model ml.Model
	var err error
	switch ds.Kind {
	case LogisticRegression:
		model, err = ml.TrainLogReg(e, trainTable, extract, dim, ds.LogReg)
	case DecisionTree:
		var rows []dataflow.Row
		rows, err = e.Collect(trainTable)
		if err == nil {
			model, err = ml.TrainTree(rows, extract, ds.Tree)
		}
	case MLP:
		var rows []dataflow.Row
		rows, err = e.Collect(trainTable)
		if err == nil {
			model, err = ml.TrainMLP(rows, extract, dim, ds.MLP)
		}
	default:
		err = fmt.Errorf("core: unknown downstream kind %d", int(ds.Kind))
	}
	if err != nil {
		return LayerResult{}, fmt.Errorf("core: training on %s: %w", em.LayerName, err)
	}

	res := LayerResult{LayerName: em.LayerName, FeatureDim: em.FeatureDim, Model: model}
	trainRows, err := e.Collect(trainTable)
	if err != nil {
		return LayerResult{}, err
	}
	if res.Train, err = ml.Evaluate(model, trainRows, extract); err != nil {
		return LayerResult{}, err
	}
	if len(testRows) > 0 {
		if res.Test, err = ml.Evaluate(model, testRows, extract); err != nil {
			return LayerResult{}, err
		}
	}
	return res, nil
}
