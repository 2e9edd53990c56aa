package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestStreamIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, primeA := w.stream(42, 30)
		b, primeB := w.stream(42, 30)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(primeA, primeB) {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		c, primeC := w.stream(43, 30)
		if reflect.DeepEqual(a, c) && reflect.DeepEqual(primeA, primeC) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
		if len(a) < 100 {
			t.Errorf("%s: %d requests in a 30s stream, want at least 100 for a p90", w.name, len(a))
		}
	}
}

func TestStreamShapes(t *testing.T) {
	cold, _ := workloadByName("cold-distinct")
	evs, _ := cold.stream(7, 30)
	seen := map[identity]bool{}
	for _, e := range evs {
		if seen[e.req.identity()] {
			t.Fatalf("cold-distinct repeats identity %+v", e.req.identity())
		}
		seen[e.req.identity()] = true
	}

	warm, _ := workloadByName("warm-repeat")
	evs, prime := warm.stream(7, 30)
	primed := map[identity]bool{}
	for _, p := range prime {
		primed[p.identity()] = true
	}
	for _, e := range evs {
		if !primed[e.req.identity()] {
			t.Fatalf("warm-repeat request %+v was not primed", e.req)
		}
	}

	burst, _ := workloadByName("shared-burst")
	evs, _ = burst.stream(7, 30)
	pairs, solos := 0, 0
	for i := 0; i+1 < len(evs); i += 2 {
		if evs[i].due != evs[i+1].due {
			t.Fatalf("shared-burst event %d: members due at %v and %v", i/2, evs[i].due, evs[i+1].due)
		}
		if evs[i].req == evs[i+1].req {
			pairs++
		} else {
			solos++
		}
	}
	if pairs <= solos || solos == 0 {
		t.Errorf("shared-burst has %d identical pairs and %d solo events, want mostly pairs plus some solos", pairs, solos)
	}
}

func TestPickTail(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		q      float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 10, ok: false},
		{n: 20, q: 0.5, value: 10, beyond: 10, ok: true},
		{n: 99, q: 0.5, value: 50, beyond: 49, ok: true},
		{n: 100, q: 0.9, value: 90, beyond: 10, ok: true},
		{n: 999, q: 0.9, value: 900, beyond: 99, ok: true},
		{n: 1000, q: 0.99, value: 990, beyond: 10, ok: true},
		{n: 10000, q: 0.999, value: 9990, beyond: 10, ok: true},
	}
	for _, c := range cases {
		got := pickTail(series(c.n))
		if got.OK != c.ok || got.N != c.n {
			t.Errorf("n=%d: got %+v, want ok=%t", c.n, got, c.ok)
			continue
		}
		if c.ok && (got.Q != c.q || got.Value != c.value || got.Beyond != c.beyond) {
			t.Errorf("n=%d: got p%g=%g with %d beyond, want p%g=%g with %d beyond",
				c.n, 100*got.Q, got.Value, got.Beyond, 100*c.q, c.value, c.beyond)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	layers, err := perLayer()
	if err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), layers...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", m.Name)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	cnnLayers := 0
	for _, m := range layers {
		if strings.HasPrefix(m.Name, "cnn.") && strings.HasSuffix(m.Name, ".ms") {
			cnnLayers++
		}
	}
	if cnnLayers != 52 {
		t.Errorf("%d per-layer CNN metrics, want 52 (every layer of the three tiny models)", cnnLayers)
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nprogram        %+v", bf.EndToEnd, endToEnd)
	}
	layers, err := perLayer()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.PerLayer, layers) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nprogram        %+v", bf.PerLayer, layers)
	}
}

func TestChecker(t *testing.T) {
	req := newRequest(1, 40, 5) // tiny-vgg16, |L| = 3
	want, err := expectedLayers(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 || want[0].Layer != "fc6" || want[2].Layer != "fc8" {
		t.Fatalf("expected layers %+v", want)
	}
	out := func(f1 float64) []layerOut {
		ls := append([]layerOut(nil), want...)
		for i := range ls {
			ls[i].TrainF1, ls[i].TestF1 = f1, f1/2
		}
		return ls
	}
	c := newChecker()
	if err := c.check("traced", req, out(0.8)); err == nil {
		t.Error("a traced output with no HTTP output passed")
	}
	if err := c.check("http", req, out(0.8)); err != nil {
		t.Fatal(err)
	}
	if err := c.check("traced", req, out(0.8)); err != nil || c.crossChecked != 1 {
		t.Errorf("matching traced output: err %v, cross-checked %d", err, c.crossChecked)
	}
	if err := c.check("http", req, out(0.7)); err == nil {
		t.Error("a different F1 for the same identity passed")
	}
	bad := out(0.8)
	bad[1].FeatureDim++
	if err := c.check("http", req, bad); err == nil {
		t.Error("a wrong feature_dim passed")
	}
	if err := c.check("http", req, out(0.8)[:2]); err == nil {
		t.Error("a missing layer passed")
	}
}

func TestOpenLoopChargesLateness(t *testing.T) {
	// Two connections, three requests due at once, each taking 50ms: the
	// third waits for a free connection and its latency counts from due.
	evs := []event{{due: 0}, {due: 0}, {due: 0}}
	outs, _ := openLoop(context.Background(), evs, func(request) outcome {
		time.Sleep(50 * time.Millisecond)
		return outcome{}
	})
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(outs))
	}
	var maxLate, maxLat time.Duration
	for _, o := range outs {
		maxLate = max(maxLate, o.late)
		maxLat = max(maxLat, o.latency)
	}
	if maxLate < 40*time.Millisecond || maxLat < 90*time.Millisecond {
		t.Errorf("late %v, latency %v: the queued request was not charged its wait", maxLate, maxLat)
	}
}
