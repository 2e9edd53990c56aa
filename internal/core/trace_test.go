package core

import (
	"strings"
	"testing"

	"repro/internal/featurestore"
	"repro/internal/obs"
)

// TestRunTraceSpans: the run's span tree is the stage breakdown and
// carries the work attributes the -trace report prints.
func TestRunTraceSpans(t *testing.T) {
	spec := tinySpec(t, 60)
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("no trace on result")
	}
	if res.Trace.Name() != "run" {
		t.Fatalf("root span = %q, want run", res.Trace.Name())
	}
	if res.Trace.Duration() <= 0 {
		t.Error("root span has no duration")
	}

	children := res.Trace.Children()

	ingest := res.Trace.Find("ingest")
	if ingest == nil {
		t.Fatal("no ingest span")
	}
	if rows, ok := ingest.Attr("rows"); !ok || rows != int64(len(spec.StructRows)+len(spec.ImageRows)) {
		t.Errorf("ingest rows attr = %d (%v)", rows, ok)
	}
	if b, ok := ingest.Attr("bytes"); !ok || b <= 0 {
		t.Errorf("ingest bytes attr = %d (%v)", b, ok)
	}
	var inferFLOPs int64
	for _, sp := range children {
		if strings.HasPrefix(sp.Name(), "infer:") {
			f, ok := sp.Attr("flops")
			if !ok {
				t.Errorf("%s has no flops attr", sp.Name())
			}
			inferFLOPs += f
		}
	}
	if inferFLOPs <= 0 {
		t.Error("inference spans attribute no FLOPs")
	}
	if inferFLOPs > res.Counters.FLOPs {
		t.Errorf("span FLOPs %d exceed engine total %d", inferFLOPs, res.Counters.FLOPs)
	}

	var b strings.Builder
	res.Trace.Render(&b)
	out := b.String()
	for _, want := range []string{"run", "  ingest", "  join", "  infer:fc6", "  train:fc8"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, out)
		}
	}
}

// TestRunMetricsRegistry: a spec-supplied registry ends up carrying engine,
// pool, and feature-store series after the run.
func TestRunMetricsRegistry(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(t, 60)
	spec.FeatureStore = store
	spec.Metrics = obs.NewRegistry()

	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Cache.StagesExecuted == 0 {
		t.Fatal("cold run executed no stages")
	}

	var b strings.Builder
	if err := spec.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"vista_engine_tasks_total",
		"vista_engine_flops_total",
		`vista_pool_used_bytes{node="0",pool="storage"}`,
		"vista_featurestore_puts_total",
		"vista_featurestore_used_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Warm rerun against the same registry: cache stages appear as spans and
	// the store's hit series stays live through the re-registered callbacks.
	res2, err := Run(spec)
	if err != nil {
		t.Fatalf("warm Run: %v", err)
	}
	if res2.Cache.StagesFromCache == 0 {
		t.Fatal("warm run hit no cached stages")
	}
	found := false
	res2.Trace.Walk(func(sp *obs.Span, _ int) {
		if strings.HasPrefix(sp.Name(), "cache:") {
			found = true
		}
	})
	if !found {
		t.Error("warm run trace has no cache: spans")
	}
	b.Reset()
	if err := spec.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "vista_featurestore_hits_total") {
		t.Error("scrape missing featurestore hits after warm run")
	}
}
