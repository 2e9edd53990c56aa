// Command perfbench is the repository's benchmark: it measures POST /run of
// vista-server end to end from outside, and per layer in a traced in-process
// replay of the same seeded request stream.
//
// Run it from the repository root through perfbench/run.sh, which builds it
// with a build cache inside the checkout:
//
//	bash perfbench/run.sh --workload cold-distinct --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a readable
// report stamped with the host and the run. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones. The command exits
// non-zero when any request failed or any output check did not hold.
//
// # End-to-end phase
//
// The benchmark builds ./cmd/vista-server, spawns it on loopback with a
// fresh feature store and drives POST /run on two connections for --seconds.
// Set-up spawns the server several times; each spawn is timed from exec to
// the first healthy /healthz plus the workload's priming requests, and
// setup_s is the median. Metrics:
//
//	throughput_rps       checked 200s per wall second of the measured phase
//	latency_p50_s        per request: from send (closed loop) or from the
//	latency_p90_s        due time (open loop); the sample count is printed
//	setup_s              median spawn-to-healthy plus priming
//	server_peak_rss_mib  the server's VmHWM at the end of the run
//
// Failed requests (any status but a checked 200, timeouts, transport errors,
// failed checks) are counted in the result line's failed and, with --trace
// 1, in error_ratio.
//
// # Workloads
//
//	cold-distinct  40 rows, closed loop, 2 clients, default server flags.
//	               Every request has a fresh weights seed, so the feature
//	               store never hits and nothing is shared; models cycle
//	               through tiny-alexnet, tiny-vgg16 and tiny-resnet50. CNN
//	               inference (dl, cnn, tensor) dominates, with store writes
//	               and data synthesis alongside; share, admission queueing
//	               and store reads idle.
//	warm-repeat    250 rows, closed loop, 2 clients, default flags. Requests
//	               cycle through one (model, seed) identity per model, all
//	               materialized during set-up (counted in setup_s). Every
//	               stage is a cache:* read, so data.Generate, store reads and
//	               training dominate while inference does nothing.
//	shared-burst   16 rows, open loop at a seeded schedule on 2 connections,
//	               server with -share and a -mem-budget that admits one
//	               full-price run at a time. Every arrival event is two
//	               requests due at once: three in four are an identical
//	               pair, which the share window groups into a leader and a
//	               follower, the rest two distinct solos, which admission
//	               serializes. The offered rate keeps the backlog from
//	               growing. The only workload where share group formation,
//	               follower attach and admission queue wait do work.
//
// Request sizes are chosen so that a 30-second run on a 2-core host holds
// at least 100 requests: the p90 then has at least 10 samples beyond it.
// Every workload's set-up also serves one request per model (warm-repeat's
// are its identities), so measurement starts on a server that has run
// every model.
//
// # Traced run
//
// With --trace 1, after the end-to-end phase the benchmark replays the head
// of the same request stream in-process, with the same arrival process,
// calling the handler's public functions in handleRun's order and timing
// each call: data.Generate, core.ShareFingerprint + share.Coordinator.Join,
// share.Ticket.AwaitLeader, core.Price/PriceFollower,
// admission.Controller.Admit, core.RunContext and calib.CompareRun +
// Recorder.Record. core.RunContext is split by the stage spans it returns in
// Result.Trace. Busy times are mean seconds per request, so they add up to
// the request; trace.unaccounted_share is what they miss, and the run fails
// if it exceeds 0.05. CNN layers are timed by applying each
// cnn.Model.Layers[i].Apply to the workload's decoded images with
// RealizeWeights(seed) weights; conv and fc rates use Layer.FLOPs, and pool
// bytes are computed from tensor sizes, not measured.
//
// # Which end-to-end metric each layer metric should move
//
//	dl.*, cnn.* (conv kernels, pooling)   latency_p50_s and throughput_rps on
//	                                      cold-distinct; not warm-repeat
//	data.generate_s, featurestore.read_s, warm-repeat first, cold-distinct
//	vista-server.overhead_s               about a quarter as much
//	share.*, admission.wait_s             latency_p90_s on shared-burst (e.g.
//	                                      follower pricing, a shorter window);
//	                                      not the other two, where both idle
//	ml.train_s                            all three workloads a little
//	core.price_s, calib.record_s          below 1 ms: no end-to-end metric
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/admission"
	"repro/internal/share"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDeadline bounds everything after the build.
const runDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: cold-distinct, warm-repeat or shared-burst")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	secs := flag.Int("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = also run the traced replay and print per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs int, trace bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if secs < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work := filepath.Join(root, ".bench_build", "perfbench")
	bin := filepath.Join(work, "vista-server")
	if err := buildServer(root, bin); err != nil {
		return err
	}
	// Spill files of the in-process replay stay inside the checkout too.
	tmp := filepath.Join(work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	printHost(os.Stdout, w, seed, secs, trace)

	evs, primeReqs := w.stream(seed, secs)
	chk := newChecker()
	e2e, err := endToEndPhase(ctx, w, bin, filepath.Join(work, "server"), evs, primeReqs, secs, chk)
	if err != nil {
		return err
	}
	res := result{Attempted: e2e.attempted, Failed: e2e.failed}
	values := e2e.values()
	specs := endToEnd
	printE2E(os.Stdout, e2e)

	if trace {
		// Replay only requests the HTTP phase sent, so each traced output
		// has an HTTP output to match.
		head := evs[:min(len(e2e.outs), w.traceRequests)]
		tr, err := replay(ctx, w, head, primeReqs, filepath.Join(work, "traced-store"), chk)
		if err != nil {
			return err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		for _, e := range tr.errs {
			fmt.Fprintln(os.Stdout, "traced failure:", e)
		}
		values, err = layerValues(w, seed, e2e, tr)
		if err != nil {
			return err
		}
		if specs, err = perLayer(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "traced run: %d requests replayed, %d outputs matched the HTTP phase; "+
			"busy times are means over n=%d, traced p50 over n=%d, driver.late_p90_s over n=%d\n",
			tr.attempted, chk.crossChecked, len(tr.recs), len(tr.latencies), len(e2e.late))
		if u := values["trace.unaccounted_share"]; u > maxUnaccounted {
			fmt.Fprintf(os.Stdout, "traced failure: timed calls cover %.1f%% of request wall time, need %.0f%%\n",
				100*(1-u), 100*(1-maxUnaccounted))
			res.Failed++
		}
		if chk.crossChecked == 0 {
			fmt.Fprintln(os.Stdout, "traced failure: no traced output was compared with the HTTP phase")
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	if res.Metrics, err = collect(specs, values); err != nil {
		return err
	}
	printMetrics(os.Stdout, specs, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout, string(line))
	if !res.Correct {
		return errors.New("requests failed or output checks did not hold")
	}
	return nil
}

// maxUnaccounted is the largest share of traced request wall time the timed
// calls may miss.
const maxUnaccounted = 0.05

// e2eResult is the end-to-end phase of one run.
type e2eResult struct {
	setups    []time.Duration
	outs      []outcome
	wall      time.Duration
	rssMiB    float64
	attempted int
	failed    int
	ok        []float64 // latencies of checked 200s, seconds
	late      []float64
	p50, p90  float64
}

func endToEndPhase(ctx context.Context, w workload, bin, dir string, evs []event, primeReqs []request, secs int, chk *checker) (*e2eResult, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	res := &e2eResult{}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < w.setups; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
			client.CloseIdleConnections()
		}
		start := time.Now()
		s, err := spawnServer(ctx, bin, dir, w.serverFlags())
		if err != nil {
			return nil, err
		}
		srv = s
		res.attempted += len(primeReqs)
		if err := prime(ctx, client, srv.base, primeReqs, chk); err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
		res.setups = append(res.setups, time.Since(start))
	}

	do := func(req request) outcome { return send(ctx, client, srv.base, req, chk) }
	if w.openLoop {
		res.outs, res.wall = openLoop(ctx, evs, do)
	} else {
		res.outs, res.wall = closedLoop(ctx, evs, time.Duration(secs)*time.Second, do)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.rssMiB = rss
	srv.stop()
	srv = nil

	for _, o := range res.outs {
		res.attempted++
		res.late = append(res.late, o.late.Seconds())
		if o.err != nil {
			res.failed++
			fmt.Fprintf(os.Stdout, "failed request: %s seed %d: %v\n", o.req.Model, o.req.Seed, o.err)
			continue
		}
		res.ok = append(res.ok, o.latency.Seconds())
	}
	sorted := sortedCopy(res.ok)
	res.p50, _ = quantile(sorted, 0.5)
	res.p90, _ = quantile(sorted, 0.9)
	return res, nil
}

func (e *e2eResult) values() map[string]float64 {
	return map[string]float64{
		"throughput_rps":      ratio(float64(len(e.ok)), e.wall.Seconds()),
		"latency_p50_s":       e.p50,
		"latency_p90_s":       e.p90,
		"setup_s":             median(seconds(e.setups)),
		"server_peak_rss_mib": e.rssMiB,
	}
}

// layerValues derives the per-layer metrics from the traced run.
func layerValues(w workload, seed int64, e2e *e2eResult, tr *tracedResult) (map[string]float64, error) {
	n := float64(len(tr.recs))
	if n == 0 {
		return nil, errors.New("traced run completed no request")
	}
	var sum [numSpans]time.Duration
	var wall, top time.Duration
	var flops int64
	followers := 0
	for _, rec := range tr.recs {
		for s := range rec.t {
			sum[s] += rec.t[s]
		}
		wall += rec.wall
		for _, s := range topCalls {
			top += rec.t[s]
		}
		flops += rec.flops
		if rec.role == share.Follower {
			followers++
		}
	}
	mean := func(s span) float64 { return sum[s].Seconds() / n }
	var stages time.Duration
	for s := spIngest; s < numSpans; s++ {
		stages += sum[s]
	}
	refused := 0
	for _, err := range tr.errs {
		if errors.Is(err, admission.ErrDeadline) || errors.Is(err, admission.ErrQueueFull) ||
			errors.Is(err, admission.ErrOversize) {
			refused++
		}
	}
	tracedP50, _ := quantile(sortedCopy(seconds(tr.latencies)), 0.5)
	lateP90, _ := quantile(sortedCopy(e2e.late), 0.9)
	v := map[string]float64{
		"vista-server.overhead_s":   e2e.p50 - tracedP50,
		"data.generate_s":           mean(spGenerate),
		"core.price_s":              mean(spPrice),
		"share.window_s":            mean(spShare),
		"share.await_leader_s":      mean(spAwait),
		"share.attach_s":            mean(spAttach),
		"share.follower_ratio":      float64(followers) / n,
		"admission.wait_s":          mean(spAdmit),
		"admission.rejected_ratio":  ratio(float64(refused), float64(tr.attempted)),
		"core.run_s":                mean(spRun),
		"core.run_other_s":          (sum[spRun] - stages).Seconds() / n,
		"dataflow.ingest_s":         mean(spIngest),
		"dataflow.join_s":           mean(spJoin),
		"dl.infer_s":                mean(spInfer),
		"dl.infer_gflops":           ratio(float64(flops)/1e9, sum[spInfer].Seconds()),
		"featurestore.read_s":       mean(spCacheRead),
		"featurestore.hit_ratio":    ratio(float64(tr.storeHits), float64(tr.storeHits+tr.storeMisses)),
		"featurestore.puts_per_run": float64(tr.storePuts) / n,
		"ml.train_s":                mean(spTrain),
		"calib.record_s":            mean(spCalib),
		"trace.unaccounted_share":   ratio((wall - top).Seconds(), wall.Seconds()),
		"driver.late_p90_s":         lateP90,
		"error_ratio":               ratio(float64(e2e.failed), float64(e2e.attempted)),
	}
	for i, m := range models {
		ls, err := timeCNNLayers(m.name, w.rows, seed+int64(i))
		if err != nil {
			return nil, err
		}
		for _, l := range ls {
			v[cnnLayerMetric(m.name, l.name)] = l.ms
		}
		v["cnn."+m.name+".conv_gflops"] = kindRate(ls, "conv", false)
		v["cnn."+m.name+".fc_gflops"] = kindRate(ls, "fc", false)
		v["cnn."+m.name+".pool_gbps"] = kindRate(ls, "pool", true)
	}
	return v, nil
}
