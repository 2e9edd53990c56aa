package core

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// tinySpec builds a small end-to-end spec over generated data and the
// executable tiny-alexnet.
func tinySpec(t *testing.T, rows int) Spec {
	t.Helper()
	spec := data.Foods().WithRows(rows)
	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Nodes:        2,
		CoresPerNode: 4,
		MemPerNode:   memory.GB(32),
		SystemKind:   memory.SparkLike,
		ModelName:    "tiny-alexnet",
		NumLayers:    3, // fc6, fc7, fc8
		Downstream:   DefaultDownstream(),
		StructRows:   structRows,
		ImageRows:    imageRows,
		Seed:         7,
		PlanKind:     plan.Staged,
		Placement:    plan.AfterJoin,
		SpillDir:     t.TempDir(),
	}
}

func TestRunEndToEndStagedAJ(t *testing.T) {
	spec := tinySpec(t, 80)
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Layers) != 3 {
		t.Fatalf("got %d layer results, want 3", len(res.Layers))
	}
	wantNames := []string{"fc6", "fc7", "fc8"}
	for i, lr := range res.Layers {
		if lr.LayerName != wantNames[i] {
			t.Errorf("layer %d = %s, want %s", i, lr.LayerName, wantNames[i])
		}
		if lr.Model == nil {
			t.Errorf("layer %s has no trained model", lr.LayerName)
		}
		if lr.Train.N == 0 || lr.Test.N == 0 {
			t.Errorf("layer %s has empty metrics: train %d test %d", lr.LayerName, lr.Train.N, lr.Test.N)
		}
		if lr.FeatureDim <= 0 {
			t.Errorf("layer %s feature dim = %d", lr.LayerName, lr.FeatureDim)
		}
	}
	if res.Counters.FLOPs <= 0 || res.Counters.TasksRun <= 0 {
		t.Error("run produced no instrumentation")
	}
	if res.Decision.CPU <= 0 || res.Decision.NP <= 0 {
		t.Errorf("optimizer decision missing: %+v", res.Decision)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
	// The timing breakdown covers ingest, join, one inference pass per
	// stage, and one training per layer.
	labels := map[string]int{}
	for _, sp := range res.Trace.Children() {
		if sp.Duration() < 0 {
			t.Errorf("negative timing for %s", sp.Name())
		}
		switch name := sp.Name(); {
		case name == "ingest" || name == "join":
			labels[name]++
		case strings.HasPrefix(name, "infer:"):
			labels["infer"]++
		case strings.HasPrefix(name, "train:"):
			labels["train"]++
		}
	}
	if labels["ingest"] != 1 || labels["join"] != 1 {
		t.Errorf("timings missing ingest/join: %v", labels)
	}
	if labels["infer"] != 3 || labels["train"] != 3 {
		t.Errorf("timings = %v, want 3 infer + 3 train", labels)
	}
	if res.TimingFor("train:") <= 0 {
		t.Error("TimingFor(train:) empty")
	}
}

func TestAllPlansYieldIdenticalModels(t *testing.T) {
	// Section 5.2: "All approaches in Figure 6 (including Vista) yield
	// identical downstream models (and thus, same accuracy) for a given CNN
	// layer." Full-batch GD is deterministic, so F1 must match exactly
	// across every logical plan and join placement.
	spec := tinySpec(t, 60)
	spec.NumLayers = 2

	type combo struct {
		kind      plan.Kind
		placement plan.JoinPlacement
	}
	combos := []combo{
		{plan.Lazy, plan.BeforeJoin},
		{plan.Lazy, plan.AfterJoin},
		{plan.Eager, plan.BeforeJoin},
		{plan.Eager, plan.AfterJoin},
		{plan.Staged, plan.AfterJoin},
		{plan.Staged, plan.BeforeJoin},
	}
	var baseline []float64
	for _, c := range combos {
		s := spec
		s.PlanKind = c.kind
		s.Placement = c.placement
		s.SpillDir = t.TempDir()
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%v/%v: %v", c.kind, c.placement, err)
		}
		if len(res.Layers) != 2 {
			t.Fatalf("%v/%v: %d layers", c.kind, c.placement, len(res.Layers))
		}
		var f1s []float64
		for _, lr := range res.Layers {
			f1s = append(f1s, lr.Test.F1, lr.Train.F1)
		}
		if baseline == nil {
			baseline = f1s
			continue
		}
		for i := range f1s {
			if math.Abs(f1s[i]-baseline[i]) > 1e-9 {
				t.Errorf("%v/%v: metric %d = %.6f differs from baseline %.6f",
					c.kind, c.placement, i, f1s[i], baseline[i])
			}
		}
	}
}

func TestRunPreMaterializedBase(t *testing.T) {
	for _, placement := range []plan.JoinPlacement{plan.AfterJoin, plan.BeforeJoin} {
		spec := tinySpec(t, 60)
		spec.NumLayers = 4 // conv5 + fc6..fc8
		spec.PreMaterializeBase = true
		spec.Placement = placement
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%v: Run: %v", placement, err)
		}
		if len(res.Layers) != 4 {
			t.Fatalf("%v: got %d layers, want 4 (base conv5 + 3)", placement, len(res.Layers))
		}
		if res.Layers[0].LayerName != "conv5" {
			t.Errorf("%v: first result = %s, want conv5 (the pre-materialized base)",
				placement, res.Layers[0].LayerName)
		}
	}
}

func TestRunCustomParams(t *testing.T) {
	spec := tinySpec(t, 40)
	spec.NumLayers = 1
	params := optimizer.DefaultParams()
	params.CPUMax = 3 // cap parallelism below the default
	spec.Params = &params
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Decision.CPU > 2 {
		t.Errorf("cpu = %d, want <= CPUMax-1 = 2", res.Decision.CPU)
	}
}

func TestRunDAGModelTinyDenseNet(t *testing.T) {
	// The full pipeline — optimizer, staged plan, partial inference,
	// training — must work unchanged for a DAG-structured CNN
	// (the paper's Section 5.4 extension).
	spec := tinySpec(t, 60)
	spec.ModelName = "tiny-densenet"
	spec.NumLayers = 3
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantNames := []string{"dense1", "dense2", "gap"}
	if len(res.Layers) != 3 {
		t.Fatalf("got %d layers", len(res.Layers))
	}
	for i, lr := range res.Layers {
		if lr.LayerName != wantNames[i] {
			t.Errorf("layer %d = %s, want %s", i, lr.LayerName, wantNames[i])
		}
		if lr.Test.N == 0 {
			t.Errorf("layer %s has no test metrics", lr.LayerName)
		}
	}
}

func TestRunWithRealImageFiles(t *testing.T) {
	// Real PNG files on disk flow through the whole pipeline: directory
	// ingest → resize → inference → training.
	dir := t.TempDir()
	const n = 60
	rng := rand.New(rand.NewSource(31))
	structRows := make([]dataflow.Row, n)
	for i := 0; i < n; i++ {
		label := float32(i % 2)
		// Label-correlated color: class 1 images lean red, class 0 blue.
		img := image.NewRGBA(image.Rect(0, 0, 20, 20))
		for y := 0; y < 20; y++ {
			for x := 0; x < 20; x++ {
				noise := uint8(rng.Intn(60))
				if label == 1 {
					img.Set(x, y, color.RGBA{R: 180 + noise/2, G: noise, B: noise, A: 255})
				} else {
					img.Set(x, y, color.RGBA{R: noise, G: noise, B: 180 + noise/2, A: 255})
				}
			}
		}
		var buf bytes.Buffer
		if err := png.Encode(&buf, img); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%d.png", i)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		structRows[i] = dataflow.Row{ID: int64(i), Label: label,
			Structured: []float32{rng.Float32()}}
	}
	imageRows, err := data.LoadImageDir(dir, cnn.TinyInputSize)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Spec{
		Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: 1,
		Downstream: DefaultDownstream(),
		StructRows: structRows, ImageRows: imageRows,
		Seed: 3, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("Run over real PNGs: %v", err)
	}
	// The color signal is trivially separable; CNN features must nail it.
	if f1 := res.Layers[0].Test.F1; f1 < 0.9 {
		t.Errorf("test F1 over color-separable PNGs = %.2f, want >= 0.9", f1)
	}
}

func TestRunDecisionTreeAndMLPDownstream(t *testing.T) {
	for _, kind := range []DownstreamKind{DecisionTree, MLP} {
		spec := tinySpec(t, 60)
		spec.NumLayers = 1
		spec.Downstream.Kind = kind
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(res.Layers) != 1 || res.Layers[0].Model == nil {
			t.Fatalf("%v: missing trained model", kind)
		}
	}
}

func TestRunBaselineConfigCanCrash(t *testing.T) {
	// A forced naive decision with no DL execution memory reproduces the
	// baseline crash behavior end-to-end.
	spec := tinySpec(t, 40)
	spec.Decision = &optimizer.Decision{
		CPU: 4, NP: 8,
		MemDL:      1024, // far below 4 replicas of tiny-alexnet
		MemUser:    memory.MB(64),
		MemStorage: memory.MB(64),
		Join:       dataflow.ShuffleJoin,
		Pers:       dataflow.Deserialized,
	}
	_, err := Run(spec)
	oom, ok := memory.IsOOM(err)
	if !ok {
		t.Fatalf("expected OOM crash, got %v", err)
	}
	if oom.Scenario != memory.DLBlowup {
		t.Errorf("scenario = %v, want dl-execution-blowup", oom.Scenario)
	}
}

func TestRunIgniteStorageCrash(t *testing.T) {
	spec := tinySpec(t, 80)
	spec.SystemKind = memory.IgniteLike
	spec.Decision = &optimizer.Decision{
		CPU: 2, NP: 4,
		MemDL:      memory.MB(64),
		MemUser:    memory.MB(64),
		MemStorage: memory.MB(1), // cannot hold the tables, and no spill
		Join:       dataflow.ShuffleJoin,
		Pers:       dataflow.Deserialized,
	}
	_, err := Run(spec)
	oom, ok := memory.IsOOM(err)
	if !ok {
		t.Fatalf("expected storage crash, got %v", err)
	}
	if oom.Scenario != memory.StorageExhausted {
		t.Errorf("scenario = %v, want storage-exhausted", oom.Scenario)
	}
}

func TestRunSparkSpillsInsteadOfCrashing(t *testing.T) {
	spec := tinySpec(t, 80)
	spec.Decision = &optimizer.Decision{
		CPU: 2, NP: 4,
		MemDL:      memory.MB(64),
		MemUser:    memory.MB(64),
		MemStorage: memory.MB(1),
		Join:       dataflow.ShuffleJoin,
		Pers:       dataflow.Deserialized,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Spark-like run should spill, not crash: %v", err)
	}
	if res.Counters.BytesSpilled <= 0 {
		t.Error("expected spills under storage pressure")
	}
}

func TestSpecValidate(t *testing.T) {
	good := tinySpec(t, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Nodes = 0 },
		func(s *Spec) { s.CoresPerNode = 0 },
		func(s *Spec) { s.MemPerNode = 0 },
		func(s *Spec) { s.NumLayers = 0 },
		func(s *Spec) { s.StructRows = nil },
		func(s *Spec) { s.ImageRows = s.ImageRows[:5] },
		func(s *Spec) { s.ModelName = "nope" },
	}
	for i, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestDownstreamKindString(t *testing.T) {
	if LogisticRegression.String() != "logistic-regression" ||
		DecisionTree.String() != "decision-tree" || MLP.String() != "mlp" {
		t.Error("downstream kind names wrong")
	}
}

func TestRunNoTestSplit(t *testing.T) {
	spec := tinySpec(t, 40)
	spec.NumLayers = 1
	spec.Downstream.TestFraction = 0
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layers[0].Test.N != 0 {
		t.Error("test metrics present despite TestFraction = 0")
	}
	if res.Layers[0].Train.N == 0 {
		t.Error("train metrics missing")
	}
}

// TestRunSampledSeries: with Metrics and SampleEvery set, the run records a
// time series with stage markers matching the trace's stages.
func TestRunSampledSeries(t *testing.T) {
	spec := tinySpec(t, 80)
	spec.Metrics = obs.NewRegistry()
	spec.SampleEvery = time.Millisecond
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec := res.Series
	if rec == nil {
		t.Fatal("Result.Series is nil despite SampleEvery")
	}
	if len(rec.Frames) < 2 {
		t.Fatalf("recorded %d frames, want >= 2 (initial + final)", len(rec.Frames))
	}
	if rec.Every != time.Millisecond {
		t.Errorf("recording period = %v, want 1ms", rec.Every)
	}
	for i := 1; i < len(rec.Frames); i++ {
		if rec.Frames[i].T.Before(rec.Frames[i-1].T) {
			t.Fatalf("frames out of time order at %d", i)
		}
	}
	// Engine series were sampled.
	var sawEngine bool
	for _, key := range rec.SeriesKeys() {
		if strings.HasPrefix(key, "vista_engine_") || strings.HasPrefix(key, "vista_pool_") {
			sawEngine = true
			break
		}
	}
	if !sawEngine {
		t.Errorf("no engine/pool series sampled; keys = %v", rec.SeriesKeys())
	}
	// Every non-empty stage marker names a real top-level stage.
	stages := make(map[string]bool)
	for _, sp := range res.Trace.Children() {
		stages[sp.Name()] = true
	}
	for _, f := range rec.Frames {
		if f.Stage != "" && !stages[f.Stage] {
			t.Errorf("frame stage %q is not a trace stage", f.Stage)
		}
	}

	// Without SampleEvery the run records nothing.
	spec2 := tinySpec(t, 80)
	spec2.Metrics = obs.NewRegistry()
	res2, err := Run(spec2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res2.Series != nil {
		t.Error("Series recorded without SampleEvery")
	}
}
