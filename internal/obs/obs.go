// Package obs is the reproduction's observability substrate: a stdlib-only
// metrics registry with Prometheus text-format exposition, and lightweight
// stage spans for tracing a run's execution tree.
//
// The paper's evaluation (Figure 6's crash/slowdown taxonomy, Table 3's
// per-stage breakdown) depends on exactly this kind of telemetry: per-pool
// memory usage versus capacity, spill/unspill traffic, and per-stage wall
// times. obs makes those numbers live — scrapeable over HTTP while a run is
// in flight — instead of a post-hoc counter snapshot.
//
// Metrics: a Registry holds counter, gauge, and histogram families keyed by
// name, each with an optional fixed label set per instance. Func-backed
// variants (CounterFunc, GaugeFunc) read their value at scrape time, which
// lets the dataflow engine expose its atomic counters and memory pools —
// and the admission controller its budget, in-flight, and outcome series —
// with zero per-update overhead. WritePrometheus renders the whole registry
// in the Prometheus text exposition format (version 0.0.4).
//
// Registered series can also be read back in-process: FindHistogram returns
// an existing histogram without creating one (absence of traffic must not
// mint empty series), Histogram.Quantile interpolates a percentile from the
// recorded buckets, and Registry.Samples snapshots gauge values by name.
// The server's SLO sweep (/healthz?slo=1), the admission queue-wait check,
// and the vista-bench admission exhibit are all built on these read paths
// rather than on scraping text they themselves produced.
//
// Spans: StartSpan opens a root span; Span.StartChild nests. Spans carry
// integer attributes (rows, bytes, FLOPs) and render as an indented tree with
// durations and self-times (Render). core.Run emits one span per stage —
// ingest, join, premat:<layer>, infer:<layer>, cache:<layer>, train:<layer> —
// and returns the tree as its stage breakdown.
package obs
