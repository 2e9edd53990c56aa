// Command vista runs a feature-transfer workload end-to-end on the real
// dataflow engine with an executable (Tiny) roster CNN: it generates a
// synthetic multimodal dataset, invokes the Vista optimizer, executes the
// chosen plan, trains the downstream model on every selected layer, and
// reports per-layer accuracy plus the run's instrumentation.
//
// With -calib <log-file> each run also appends its estimate-vs-measured
// calibration samples to an on-disk log, and `vista -calib <log-file> report`
// replays such a log (from this CLI or a vista-server's -calib-log) into the
// rolling drift report offline — identical to the server's GET /calibration.
//
// Example:
//
//	vista -dataset foods -rows 2000 -model tiny-resnet50 -layers 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/plan"
	"repro/internal/sim"
)

func main() {
	var (
		dataset    = flag.String("dataset", "foods", "dataset preset: foods or amazon")
		rows       = flag.Int("rows", 2000, "number of examples to generate")
		model      = flag.String("model", "tiny-alexnet", "roster CNN (tiny-alexnet, tiny-vgg16, tiny-resnet50)")
		layers     = flag.Int("layers", 3, "number of top feature layers to explore (|L|)")
		nodes      = flag.Int("nodes", 2, "simulated worker nodes")
		cores      = flag.Int("cores", 4, "cores per worker")
		memGB      = flag.Float64("mem", 32, "system memory per worker (GB)")
		planKind   = flag.String("plan", "staged", "logical plan: lazy, eager, or staged")
		placement  = flag.String("placement", "aj", "join placement: aj (after join) or bj (before join)")
		downstream = flag.String("downstream", "logreg", "downstream model: logreg, tree, or mlp")
		seed       = flag.Int64("seed", 7, "random seed")
		dataDir    = flag.String("data", "", "load the dataset from this directory instead of generating it")
		saveData   = flag.String("save-data", "", "write the generated dataset to this directory (one file per image)")
		saveModels = flag.String("save-models", "", "write per-layer trained model artifacts (JSON) to this directory")
		cacheDir   = flag.String("feature-cache", "", "materialize CNN features in this directory and reuse them across invocations")
		cacheMB    = flag.Int64("feature-cache-mb", 512, "feature cache byte budget in MiB (with -feature-cache)")
		trace      = flag.Bool("trace", false, "print (to stderr) the run's stage span tree and the simulator's estimate-vs-measured comparisons")
		traceOut   = flag.String("trace-out", "", "write the run's trace to this file (chrome://tracing / Perfetto loadable)")
		traceFmt   = flag.String("trace-format", "chrome", "trace file format: chrome (trace-event JSON) or otlp (OTLP-style JSON spans)")
		seriesOut  = flag.String("timeseries-out", "", "write the run's sampled time series to this file (.csv = CSV, otherwise JSON)")
		sampleEvr  = flag.Duration("sample-every", 10*time.Millisecond, "time-series sample period (with -timeseries-out / -trace-out / -trace)")
		calibLog   = flag.String("calib", "", "calibration log file: append this run's estimate-vs-measured samples to it, or replay it with the 'report' subcommand (vista -calib <log> report)")
		calibJSON  = flag.Bool("calib-json", false, "with 'report': emit the calibration report as JSON, byte-identical to a server's GET /calibration over the same log")
		calibProf  = flag.String("calib-profile", "", "calibration profile file (written by an auto-calibrating vista-server): apply its fitted scales to plan choice and estimates, and annotate 'report' output with it")
		calibHL    = flag.Duration("calib-half-life", 0, "calibration EWMA half-life (0 = the 30m default); must match the server's -calib-half-life for byte-identical reports over the same log")
	)
	flag.Parse()

	if *calibHL < 0 {
		fmt.Fprintln(os.Stderr, "vista: -calib-half-life must be >= 0")
		os.Exit(2)
	}
	if flag.Arg(0) == "report" {
		if *calibLog == "" {
			fmt.Fprintln(os.Stderr, "vista: report requires -calib <log-file>")
			os.Exit(2)
		}
		if err := calibReport(*calibLog, *calibProf, *calibHL, *calibJSON, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "vista:", err)
			os.Exit(1)
		}
		return
	}

	opts := runOptions{
		dataset: *dataset, rows: *rows, model: *model, layers: *layers,
		nodes: *nodes, cores: *cores, memGB: *memGB,
		planKind: *planKind, placement: *placement, downstream: *downstream,
		seed: *seed, dataDir: *dataDir, saveData: *saveData, saveModels: *saveModels,
		cacheDir: *cacheDir, cacheMB: *cacheMB, trace: *trace,
		traceOut: *traceOut, traceFormat: *traceFmt,
		timeseriesOut: *seriesOut, sampleEvery: *sampleEvr,
		calibLog: *calibLog, calibProfile: *calibProf, calibHalfLife: *calibHL,
	}
	// Ctrl-C / SIGTERM cancels the run context: the executor aborts at the
	// next stage boundary (or inside the running stage, via TaskContext),
	// releasing tables, pool charges, and spill files before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "vista: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "vista:", err)
		os.Exit(1)
	}
}

// runOptions carries the parsed flags.
type runOptions struct {
	dataset       string
	rows          int
	model         string
	layers        int
	nodes         int
	cores         int
	memGB         float64
	planKind      string
	placement     string
	downstream    string
	seed          int64
	dataDir       string
	saveData      string
	saveModels    string
	cacheDir      string
	cacheMB       int64
	trace         bool
	traceOut      string
	traceFormat   string
	timeseriesOut string
	sampleEvery   time.Duration
	calibLog      string
	calibProfile  string
	calibHalfLife time.Duration
	// profile is the loaded -calib-profile (nil = none); run() populates it.
	profile *calib.Profile
}

// observing reports whether the run needs the metrics registry and sampler.
// Calibration needs the sampled series for its storage samples, so -calib
// turns observation on too.
func (o *runOptions) observing() bool {
	return o.trace || o.traceOut != "" || o.timeseriesOut != "" || o.calibLog != ""
}

// run executes the workload under ctx (cancellation aborts it cleanly).
// Result rows and summary counters go to stdout; diagnostics — the -trace
// span report and the estimate-vs-measured tables — go to stderr, so piped
// stdout stays machine-readable.
func run(ctx context.Context, o runOptions, stdout, stderr io.Writer) error {
	switch o.traceFormat {
	case "", "chrome":
		o.traceFormat = "chrome"
	case "otlp":
	default:
		return fmt.Errorf("unknown trace format %q (chrome or otlp)", o.traceFormat)
	}
	if o.observing() && o.sampleEvery <= 0 {
		o.sampleEvery = time.Millisecond
	}
	if o.calibProfile != "" {
		p, err := calib.LoadProfile(o.calibProfile)
		if err != nil {
			return err
		}
		o.profile = p
	}

	structRows, imageRows, err := loadOrGenerate(o, stdout)
	if err != nil {
		return err
	}

	runSpec := core.Spec{
		Nodes:        o.nodes,
		CoresPerNode: o.cores,
		MemPerNode:   memory.GB(o.memGB),
		SystemKind:   memory.SparkLike,
		ModelName:    o.model,
		NumLayers:    o.layers,
		Downstream:   core.DefaultDownstream(),
		StructRows:   structRows,
		ImageRows:    imageRows,
		Seed:         o.seed,
		CostScales:   o.profile.CostScales(),
	}
	if o.cacheDir != "" {
		store, err := featurestore.Open(o.cacheDir, o.cacheMB<<20)
		if err != nil {
			return fmt.Errorf("open feature cache: %w", err)
		}
		defer store.Close()
		runSpec.FeatureStore = store
	}
	if o.observing() {
		runSpec.Metrics = obs.NewRegistry()
		runSpec.SampleEvery = o.sampleEvery
	}
	switch strings.ToLower(o.planKind) {
	case "lazy":
		runSpec.PlanKind = plan.Lazy
	case "eager":
		runSpec.PlanKind = plan.Eager
	case "staged":
		runSpec.PlanKind = plan.Staged
	default:
		return fmt.Errorf("unknown plan %q", o.planKind)
	}
	switch strings.ToLower(o.placement) {
	case "aj":
		runSpec.Placement = plan.AfterJoin
	case "bj":
		runSpec.Placement = plan.BeforeJoin
	default:
		return fmt.Errorf("unknown placement %q", o.placement)
	}
	switch strings.ToLower(o.downstream) {
	case "logreg":
		runSpec.Downstream.Kind = core.LogisticRegression
	case "tree":
		runSpec.Downstream.Kind = core.DecisionTree
	case "mlp":
		runSpec.Downstream.Kind = core.MLP
	default:
		return fmt.Errorf("unknown downstream model %q", o.downstream)
	}

	fmt.Fprintf(stdout, "Running %s/%s over %s with %s downstream...\n",
		runSpec.PlanKind, runSpec.Placement, o.model, runSpec.Downstream.Kind)
	res, err := core.RunContext(ctx, runSpec)
	if err != nil {
		if oom, ok := memory.IsOOM(err); ok {
			return fmt.Errorf("workload crashed (Section 4.1 scenario): %w", oom)
		}
		return err
	}

	d := res.Decision
	fmt.Fprintf(stdout, "\nOptimizer decision: cpu=%d np=%d join=%v pers=%v storage=%s user=%s dl=%s\n",
		d.CPU, d.NP, d.Join, d.Pers,
		memory.FormatBytes(d.MemStorage), memory.FormatBytes(d.MemUser), memory.FormatBytes(d.MemDL))
	fmt.Fprintf(stdout, "\n%-10s %10s %10s %10s\n", "layer", "dims", "train F1", "test F1")
	for _, lr := range res.Layers {
		fmt.Fprintf(stdout, "%-10s %10d %9.1f%% %9.1f%%\n",
			lr.LayerName, lr.FeatureDim, lr.Train.F1*100, lr.Test.F1*100)
	}
	fmt.Fprintf(stdout, "\nStage breakdown:\n")
	for _, sp := range res.Trace.Children() {
		fmt.Fprintf(stdout, "  %-16s %v\n", sp.Name(), sp.Duration().Round(1e6))
	}
	c := res.Counters
	fmt.Fprintf(stdout, "\nElapsed %v | tasks %d | rows %d | FLOPs %.2fG | shuffled %s | spilled %s | peak storage %s\n",
		res.Elapsed.Round(1e6), c.TasksRun, c.RowsProcessed, float64(c.FLOPs)/1e9,
		memory.FormatBytes(c.BytesShuffled), memory.FormatBytes(c.BytesSpilled),
		memory.FormatBytes(c.PeakStorageBytes))
	if res.Cache.Enabled {
		st := runSpec.FeatureStore.Snapshot()
		fmt.Fprintf(stdout, "Feature cache: %d/%d stages from cache | loaded %d, stored %d entries | store %s in %d entries (hits %d, misses %d, evictions %d)\n",
			res.Cache.StagesFromCache, res.Cache.StagesFromCache+res.Cache.StagesExecuted,
			res.Cache.EntriesLoaded, res.Cache.EntriesStored,
			memory.FormatBytes(st.UsedBytes), st.Entries, st.Hits, st.Misses, st.Evictions)
	}
	if o.trace {
		fmt.Fprintf(stderr, "\nStage trace:\n")
		res.Trace.Render(stderr)
		printSimComparison(stderr, o, runSpec, res)
	}
	if o.traceOut != "" {
		if err := writeTraceFile(o.traceOut, o.traceFormat, res); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s trace to %s\n", o.traceFormat, o.traceOut)
	}
	if o.timeseriesOut != "" {
		if err := writeTimeseriesFile(o.timeseriesOut, res); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote sampled time series to %s\n", o.timeseriesOut)
	}
	if o.calibLog != "" {
		if err := appendCalibration(o, runSpec, res); err != nil {
			// Calibration is observability: report it, don't fail the run.
			fmt.Fprintf(stderr, "calibration skipped: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "appended calibration record to %s\n", o.calibLog)
		}
	}

	if o.saveModels != "" {
		if err := os.MkdirAll(o.saveModels, 0o755); err != nil {
			return err
		}
		for _, lr := range res.Layers {
			path := filepath.Join(o.saveModels, lr.LayerName+".json")
			if err := ml.SaveModel(path, lr.Model); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "Saved %d model artifacts to %s\n", len(res.Layers), o.saveModels)
	}
	return nil
}

// printSimComparison lines the run's measured span tree up against the
// simulator's analytical estimate for the same workload shape. The simulator
// prices the paper's cluster hardware, so absolute times differ by orders of
// magnitude; the per-stage *shares* are the comparable signal. Skipped with a
// note when the optimizer finds the simulated workload infeasible (tiny
// in-process runs can describe workloads the paper cluster model rejects).
func printSimComparison(w io.Writer, o runOptions, runSpec core.Spec, res *core.Result) {
	var imgBytes, n int64
	for i := range runSpec.ImageRows {
		imgBytes += runSpec.ImageRows[i].MemBytes()
		n++
		if n == 100 {
			break
		}
	}
	if n > 0 {
		imgBytes /= n
	}
	wl, err := sim.NewWorkload(sim.WorkloadSpec{
		ModelName: o.model,
		NumLayers: o.layers,
		Dataset: sim.DatasetSpec{
			Name:          o.dataset,
			Rows:          len(runSpec.StructRows),
			StructDim:     len(runSpec.StructRows[0].Structured),
			ImageRowBytes: imgBytes,
		},
		PlanKind:  runSpec.PlanKind,
		Placement: runSpec.Placement,
		Nodes:     o.nodes,
		CPUSys:    o.cores,
		MemSys:    memory.GB(o.memGB),
	})
	if err != nil {
		fmt.Fprintf(w, "\nSimulator comparison skipped: %v\n", err)
		return
	}
	cfg, err := sim.VistaConfig(wl)
	if err != nil {
		fmt.Fprintf(w, "\nSimulator comparison skipped: %v\n", err)
		return
	}
	prof := sim.PaperCluster().WithNodes(o.nodes)
	prof.MemPerNode = memory.GB(o.memGB)
	simRes := sim.Run(wl, cfg, prof)
	if simRes.Crash != nil {
		fmt.Fprintf(w, "\nSimulator comparison skipped: simulated run crashes (%v)\n", simRes.Crash)
		return
	}
	fmt.Fprintf(w, "\nEstimate vs measured (simulator prices the paper cluster; compare shares, not absolutes):\n")
	sim.RenderComparison(w, sim.CompareTrace(simRes, res.Trace))
	if res.Series != nil {
		fmt.Fprintf(w, "\nMemory-model validation (sampled pool occupancy and spill vs Section 4.1 estimates):\n")
		sim.RenderSeriesReport(w, sim.CompareSeries(simRes, res.Trace, res.Series))
	}
}

// writeTraceFile exports the run's span tree (plus sampled counter tracks for
// the chrome format) to path.
func writeTraceFile(path, format string, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "chrome":
		err = export.WriteChromeTrace(f, res.Trace, res.Series)
	case "otlp":
		err = export.WriteOTLP(f, res.Trace)
	default:
		err = fmt.Errorf("unknown trace format %q (chrome or otlp)", format)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// writeTimeseriesFile exports the sampled recording: CSV when path ends in
// .csv, JSON otherwise.
func writeTimeseriesFile(path string, res *core.Result) error {
	if res.Series == nil {
		return fmt.Errorf("no time series recorded (run with -sample-every > 0)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		err = export.WriteTimeseriesCSV(f, res.Series)
	} else {
		err = export.WriteTimeseriesJSON(f, res.Series)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// loadOrGenerate obtains the dataset from disk or the synthetic generator,
// optionally persisting a fresh one.
func loadOrGenerate(o runOptions, stdout io.Writer) (structRows, imageRows []dataflow.Row, err error) {
	if o.dataDir != "" {
		fmt.Fprintf(stdout, "Loading dataset from %s...\n", o.dataDir)
		return data.Load(o.dataDir)
	}
	var spec data.Spec
	switch o.dataset {
	case "foods":
		spec = data.Foods()
	case "amazon":
		spec = data.Amazon()
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", o.dataset)
	}
	spec = spec.WithRows(o.rows)
	fmt.Fprintf(stdout, "Generating %s: %d rows × %d structured features + %dx%d images...\n",
		spec.Name, spec.Rows, spec.StructDim, spec.ImageSize, spec.ImageSize)
	structRows, imageRows, err = data.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	if o.saveData != "" {
		if err := data.Save(o.saveData, structRows, imageRows); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stdout, "Saved dataset to %s\n", o.saveData)
	}
	return structRows, imageRows, nil
}
