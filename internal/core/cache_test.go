package core

import (
	"strings"
	"testing"

	"repro/internal/featurestore"
	"repro/internal/memory"
)

// TestRunFeatureStoreWarmReuse drives the full cross-run caching path: a
// cold run publishes every stage's features, a warm run of the same spec
// attaches all of them — zero CNN FLOPs, identical downstream metrics, no DL
// replica memory.
func TestRunFeatureStoreWarmReuse(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(256))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec := tinySpec(t, 60)
	spec.FeatureStore = store

	cold, err := Run(spec)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	nSteps := len(cold.Plan.Steps)
	if !cold.Cache.Enabled || cold.Cache.StagesExecuted != nSteps || cold.Cache.StagesFromCache != 0 {
		t.Fatalf("cold cache report: %+v", cold.Cache)
	}
	if cold.Cache.EntriesStored == 0 {
		t.Fatalf("cold run published nothing: %+v", cold.Cache)
	}

	warm, err := Run(spec)
	if err != nil {
		t.Fatalf("warm Run: %v", err)
	}
	if warm.Cache.StagesFromCache != nSteps || warm.Cache.StagesExecuted != 0 {
		t.Fatalf("warm cache report: %+v", warm.Cache)
	}
	if warm.Cache.WeightsSum != cold.Cache.WeightsSum || warm.Cache.DataSum != cold.Cache.DataSum {
		t.Fatal("content address changed between identical runs")
	}

	// Warm runs execute zero CNN FLOPs: the runs differ by exactly the
	// plan's inference cost (training FLOPs are deterministic).
	wantDelta := int64(len(spec.ImageRows)) * cold.Plan.TotalInferenceFLOPs()
	if delta := cold.Counters.FLOPs - warm.Counters.FLOPs; delta != wantDelta {
		t.Fatalf("FLOP delta %d, want exactly %d (rows × plan inference FLOPs)", delta, wantDelta)
	}

	// Cached features are byte-identical, so every metric reproduces.
	if len(warm.Layers) != len(cold.Layers) {
		t.Fatalf("layer count changed: %d vs %d", len(warm.Layers), len(cold.Layers))
	}
	for i := range warm.Layers {
		if warm.Layers[i].Train != cold.Layers[i].Train || warm.Layers[i].Test != cold.Layers[i].Test {
			t.Fatalf("layer %s metrics diverged: warm %+v/%+v cold %+v/%+v",
				warm.Layers[i].LayerName, warm.Layers[i].Train, warm.Layers[i].Test,
				cold.Layers[i].Train, cold.Layers[i].Test)
		}
	}

	// Fully-warm runs hold no CNN replicas in DL Execution Memory and time
	// "cache:" stages instead of "infer:" ones.
	if warm.Decision.MemDL != 0 {
		t.Fatalf("warm decision reserves %d bytes of DL memory", warm.Decision.MemDL)
	}
	var cacheStages, inferStages int
	for _, sp := range warm.Trace.Children() {
		switch {
		case strings.HasPrefix(sp.Name(), "cache:"):
			cacheStages++
		case strings.HasPrefix(sp.Name(), "infer:"):
			inferStages++
		}
	}
	if cacheStages != nSteps || inferStages != 0 {
		t.Fatalf("warm timings: %d cache / %d infer stages, want %d/0", cacheStages, inferStages, nSteps)
	}
}

// TestRunFeatureStoreKeyedByWeights asserts the content address pins the
// weights: a different realization seed must not reuse cached features.
func TestRunFeatureStoreKeyedByWeights(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(256))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec := tinySpec(t, 40)
	spec.NumLayers = 2
	spec.FeatureStore = store
	if _, err := Run(spec); err != nil {
		t.Fatalf("cold Run: %v", err)
	}

	spec.Seed = 99 // different weights
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("re-seeded Run: %v", err)
	}
	if res.Cache.StagesFromCache != 0 || res.Cache.StagesExecuted != len(res.Plan.Steps) {
		t.Fatalf("cache hit across different weights: %+v", res.Cache)
	}
}
