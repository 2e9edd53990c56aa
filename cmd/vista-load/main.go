// Command vista-load replays a time-compressed traffic profile against a
// live vista-server and turns the serving stack's load-shedding contract
// into an exit code.
//
// A profile is a sum of shapes from the internal/workload DSL:
//
//	-profile 'diurnal(2,12,24h) + flood(12h,10m,40)'
//
// With -time-scale N, N simulated seconds elapse per wall second: the
// default profile and scale replay a full 24-hour diurnal day — including a
// lunchtime flood — in two minutes of wall clock, while every instantaneous
// request rate keeps its nominal per-second value. Open-loop mode (-mode
// open) offers the profile's rate regardless of responses, the arrival
// process of independent clients; closed-loop mode (-mode closed) maintains
// ceil(rate) well-behaved clients that honor 429 Retry-After backoff.
//
// The run records a per-tick timeline — offered load, response classes
// (200/429/503/other, timeouts, transport failures, driver sheds), latency
// p50/p99, and vista_admission_queue_depth scraped from /metrics — written
// as CSV or JSON with -timeline. At exit the run is checked against the
// serving contract:
//
//   - every offered request is classified exactly once (counter
//     reconciliation, also cross-checked against the server's
//     vista_admission_* and, when it shares, vista_share_* counter deltas
//     when -reconcile is set; see workload.Reconcile);
//   - zero transport failures: an overloaded server sheds with 429/503, it
//     never stops answering the socket, and every 429 carries Retry-After;
//   - off-peak p99 stays within -off-peak-p99 (buckets whose target rate is
//     below -off-peak-below);
//   - 429s carry at least -min-retry-distinct distinct Retry-After values —
//     the regression gate for the static-hint retry herd.
//
// Any violated invariant prints to stderr and the command exits 1 (2 for
// usage errors), so CI can gate on a compressed day of traffic.
//
// Example against a local server with a small budget:
//
//	vista-server -addr :8080 -mem-budget 64 &
//	vista-load -url http://127.0.0.1:8080 -time-scale 720 -timeline day.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/workload"
)

func main() {
	url := flag.String("url", "", "base URL of the vista-server under test (required)")
	profile := flag.String("profile", "diurnal(2,12,24h) + flood(12h,10m,40)",
		"offered-load profile: const/diurnal/step/burst/flood terms joined by +")
	duration := flag.Duration("duration", 24*time.Hour, "simulated span to replay")
	timeScale := flag.Float64("time-scale", 720, "simulated seconds per wall second (720: a day in 2 minutes)")
	tick := flag.Duration("tick", 0, "timeline bucket width in simulated time (0 = duration/60)")
	mode := flag.String("mode", "open", "traffic mode: open (offered rate) or closed (concurrent clients honoring Retry-After)")
	model := flag.String("model", "tiny-alexnet", "model for the /run body")
	dataset := flag.String("dataset", "foods", "dataset for the /run body")
	rows := flag.Int("rows", 40, "dataset rows for the /run body")
	layers := flag.Int("layers", 2, "|L| for the /run body")
	body := flag.String("body", "", "explicit /run JSON body (overrides -model/-dataset/-rows/-layers)")
	timeline := flag.String("timeline", "", "write the per-tick timeline to this file (- for stdout)")
	format := flag.String("timeline-format", "csv", "timeline format: csv or json")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request wall-clock timeout")
	maxInFlight := flag.Int("max-inflight", 256, "cap on concurrent in-flight requests before the driver sheds locally")
	scrape := flag.Bool("scrape", true, "sample vista_admission_queue_depth from /metrics at every tick boundary")
	reconcile := flag.Bool("reconcile", true, "diff the server's vista_admission_* counters across the run and reconcile them with observed responses")
	check := flag.Bool("check", true, "enforce the exit-code invariants (disable for exploratory runs)")
	maxTransport := flag.Int("max-transport", 0, "allowed transport-level failures")
	maxTimeouts := flag.Int("max-timeouts", 0, "allowed client-side request timeouts")
	offPeakP99 := flag.Duration("off-peak-p99", 0, "p99 latency bound for off-peak buckets (0 disables)")
	offPeakBelow := flag.Float64("off-peak-below", 4, "buckets with target rate below this are off-peak for -off-peak-p99")
	minRetryDistinct := flag.Int("min-retry-distinct", 0, "require at least this many distinct Retry-After values across 429s (0 disables; 2 is the herd-regression gate)")
	flag.Parse()

	if *url == "" {
		fatal(2, "missing -url")
	}
	pattern, err := workload.Parse(*profile)
	if err != nil {
		fatal(2, "%v", err)
	}
	m, err := workload.ParseMode(*mode)
	if err != nil {
		fatal(2, "%v", err)
	}
	reqBody := *body
	if reqBody == "" {
		reqBody = fmt.Sprintf(`{"model":%q,"dataset":%q,"rows":%d,"layers":%d}`, *model, *dataset, *rows, *layers)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := &http.Client{Timeout: *reqTimeout}

	var before map[string]float64
	if *reconcile {
		before, err = workload.ScrapeMetrics(ctx, client, *url)
		if err != nil {
			fatal(2, "pre-run scrape (is the server up?): %v", err)
		}
	}

	res, err := workload.Run(ctx, workload.Config{
		BaseURL:          *url,
		Body:             reqBody,
		Pattern:          pattern,
		Duration:         *duration,
		TimeScale:        *timeScale,
		Tick:             *tick,
		Mode:             m,
		Client:           client,
		RequestTimeout:   *reqTimeout,
		MaxInFlight:      *maxInFlight,
		ScrapeQueueDepth: *scrape,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(2, "run: %v", err)
	}
	interrupted := err != nil

	fmt.Println("vista-load:", res.Summary())
	if *timeline != "" {
		if err := writeTimeline(res, *timeline, *format); err != nil {
			fatal(2, "timeline: %v", err)
		}
	}

	failures := 0
	if *check && !interrupted {
		checks := workload.Checks{
			MaxTransport:          *maxTransport,
			MaxTimeouts:           *maxTimeouts,
			OffPeakP99:            *offPeakP99,
			OffPeakBelow:          *offPeakBelow,
			MinDistinctRetryAfter: *minRetryDistinct,
		}
		for _, verr := range res.Verify(checks) {
			fmt.Fprintln(os.Stderr, "vista-load: FAIL:", verr)
			failures++
		}
		if *reconcile {
			var errs []error
			if after, err := workload.ScrapeMetrics(ctx, client, *url); err != nil {
				errs = append(errs, fmt.Errorf("post-run scrape: %w", err))
			} else {
				errs = workload.Reconcile(before, after, res)
			}
			for _, rerr := range errs {
				fmt.Fprintln(os.Stderr, "vista-load: FAIL:", rerr)
				failures++
			}
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "vista-load: interrupted; partial timeline written, invariants skipped")
	}
	if failures > 0 {
		fatal(1, "%d invariant(s) violated", failures)
	}
	if *check && !interrupted {
		fmt.Println("vista-load: all invariants held")
	}
}

func writeTimeline(res *workload.Result, path, format string) error {
	var out *os.File
	if path == "-" {
		out = os.Stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	switch format {
	case "csv":
		return res.WriteCSV(out)
	case "json":
		return res.WriteJSON(out)
	default:
		return fmt.Errorf("unknown timeline format %q (want csv or json)", format)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vista-load: "+format+"\n", args...)
	os.Exit(code)
}
