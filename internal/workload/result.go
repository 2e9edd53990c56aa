package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Bucket is one timeline tick: everything the driver observed inside one
// simulated interval [Start, Start+Tick).
type Bucket struct {
	// Start is the bucket's simulated offset from the profile start.
	Start time.Duration
	// TargetRate is the profile's offered rate at Start (requests/sec).
	TargetRate float64
	// Offered counts requests launched (open loop) or attempted (closed
	// loop) in the bucket.
	Offered int
	// Counts holds per-class completions recorded in the bucket, indexed by
	// Class. Completions land in the bucket of their completion time, so a
	// bucket's Offered and the sum of its Counts differ for slow requests;
	// only run totals reconcile exactly.
	Counts [numClasses]int
	// P50 and P99 are wall-clock latency quantiles over the bucket's
	// successful (200) requests; zero when none completed.
	P50, P99 time.Duration
	// QueueDepth is vista_admission_queue_depth scraped at the bucket
	// boundary, or -1 when not observed.
	QueueDepth float64

	scraping bool // boundary scrape already dispatched
}

// Result aggregates one driver run.
type Result struct {
	// Profile, Mode, Duration, TimeScale, Tick echo the config for readers
	// of a serialized timeline.
	Profile   string
	Mode      Mode
	Duration  time.Duration
	TimeScale float64
	Tick      time.Duration
	// WallElapsed is how long the replay actually took.
	WallElapsed time.Duration
	// Buckets is the timeline, oldest first.
	Buckets []Bucket
	// Offered and Counts are run totals; Offered always equals the sum of
	// Counts — every offered request lands in exactly one class.
	Offered int
	Counts  [numClasses]int
	// RetryAfter counts 429 responses by their Retry-After header value
	// ("" for a 429 without the header). One distinct hint across an
	// overload episode is the retry-herd bug.
	RetryAfter map[string]int
}

// result snapshots the driver's aggregate state after the run has drained.
func (d *driver) result() *Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	res := &Result{
		Profile:     d.cfg.Pattern.String(),
		Mode:        d.cfg.Mode,
		Duration:    d.cfg.Duration,
		TimeScale:   d.cfg.TimeScale,
		Tick:        d.cfg.Tick,
		WallElapsed: d.clk.Since(d.start),
		Buckets:     make([]Bucket, len(d.buckets)),
		RetryAfter:  make(map[string]int, len(d.retry)),
	}
	copy(res.Buckets, d.buckets)
	for i := range res.Buckets {
		b := &res.Buckets[i]
		b.P50 = quantile(d.latencies[i], 0.50)
		b.P99 = quantile(d.latencies[i], 0.99)
		res.Offered += b.Offered
		for c := 0; c < numClasses; c++ {
			res.Counts[c] += b.Counts[c]
		}
	}
	for k, v := range d.retry {
		res.RetryAfter[k] = v
	}
	return res
}

// quantile is the nearest-rank quantile of an unsorted sample (0 when
// empty). The sample is copied, not mutated.
func quantile(sample []time.Duration, q float64) time.Duration {
	if len(sample) == 0 {
		return 0
	}
	s := make([]time.Duration, len(sample))
	copy(s, sample)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Checks configures Result.Verify — the exit-code invariants a load run
// enforces on the serving stack.
type Checks struct {
	// MaxTransport bounds connection-level failures (refused/reset/EOF).
	// The default 0 is the contract: an overloaded server sheds with 429
	// and 503, it never stops answering the socket.
	MaxTransport int
	// MaxTimeouts bounds client-side request timeouts (default 0).
	MaxTimeouts int
	// MaxShed bounds driver-side drops (default 0): nonzero shed means the
	// driver under-offered and the run's conclusions are suspect.
	MaxShed int
	// OffPeakP99 bounds P99 latency in every bucket whose target rate is
	// below OffPeakBelow (0 disables the check). Off-peak is where latency
	// has no excuse; peak buckets are judged by shedding, not speed.
	OffPeakP99   time.Duration
	OffPeakBelow float64
	// MinDistinctRetryAfter requires at least this many distinct Retry-After
	// values across the run's 429s (0 disables). Any value >= 2 is the
	// regression gate for the static-hint herd bug; it is only enforced
	// when the run produced at least MinDistinctRetryAfter 429s.
	MinDistinctRetryAfter int
}

// Verify returns every violated invariant (empty = the run upheld the
// serving contract).
func (r *Result) Verify(c Checks) []error {
	var errs []error
	sum := 0
	for _, n := range r.Counts {
		sum += n
	}
	if sum != r.Offered {
		errs = append(errs, fmt.Errorf("workload: outcomes sum to %d, offered %d — a request escaped classification", sum, r.Offered))
	}
	if n := r.Counts[ClassTransport]; n > c.MaxTransport {
		errs = append(errs, fmt.Errorf("workload: %d transport failures (allowed %d)", n, c.MaxTransport))
	}
	if n := r.Counts[ClassTimeout]; n > c.MaxTimeouts {
		errs = append(errs, fmt.Errorf("workload: %d request timeouts (allowed %d)", n, c.MaxTimeouts))
	}
	if n := r.Counts[ClassShed]; n > c.MaxShed {
		errs = append(errs, fmt.Errorf("workload: driver shed %d requests (allowed %d) — raise MaxInFlight or lower the profile", n, c.MaxShed))
	}
	if n := r.Counts[ClassOther]; n > 0 {
		errs = append(errs, fmt.Errorf("workload: %d responses outside the 200/429/503 contract", n))
	}
	if c.OffPeakP99 > 0 {
		for _, b := range r.Buckets {
			if b.TargetRate >= c.OffPeakBelow || b.P99 == 0 {
				continue
			}
			if b.P99 > c.OffPeakP99 {
				errs = append(errs, fmt.Errorf("workload: off-peak bucket at %s (rate %.2f) has p99 %s, bound %s",
					b.Start, b.TargetRate, b.P99, c.OffPeakP99))
			}
		}
	}
	if n := r.RetryAfter[""]; n > 0 {
		errs = append(errs, fmt.Errorf("workload: %d 429s carried no Retry-After header", n))
	}
	if c.MinDistinctRetryAfter > 0 && r.Counts[ClassThrottled] >= c.MinDistinctRetryAfter {
		if got := r.distinctRetryAfter(); got < c.MinDistinctRetryAfter {
			errs = append(errs, fmt.Errorf("workload: %d 429s carried only %d distinct Retry-After value(s) (want >= %d) — a constant hint re-synchronizes the retry herd",
				r.Counts[ClassThrottled], got, c.MinDistinctRetryAfter))
		}
	}
	return errs
}

// distinctRetryAfter counts the distinct Retry-After hints the run's 429s
// carried. A missing header ("") is not a hint: it is a contract violation of
// its own, and counting it would let one hint-less 429 plus a constant hint
// pass the herd gate.
func (r *Result) distinctRetryAfter() int {
	n := len(r.RetryAfter)
	if _, ok := r.RetryAfter[""]; ok {
		n--
	}
	return n
}

// Summary renders the run totals as one human line.
func (r *Result) Summary() string {
	return fmt.Sprintf("%s mode=%s scale=%.0fx wall=%s offered=%d ok=%d throttled=%d overload=%d other=%d timeout=%d transport=%d shed=%d distinct-retry-after=%d",
		r.Profile, r.Mode, r.TimeScale, r.WallElapsed.Round(time.Millisecond),
		r.Offered, r.Counts[ClassOK], r.Counts[ClassThrottled], r.Counts[ClassOverload],
		r.Counts[ClassOther], r.Counts[ClassTimeout], r.Counts[ClassTransport], r.Counts[ClassShed],
		r.distinctRetryAfter())
}

// WriteCSV emits the timeline, one row per bucket, with a header row. The
// column set is stable — downstream plots depend on it.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "sim_offset_s,target_rate,offered,ok,throttled,overload,other,timeout,transport,shed,p50_ms,p99_ms,queue_depth"); err != nil {
		return err
	}
	for _, b := range r.Buckets {
		_, err := fmt.Fprintf(w, "%.3f,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%g\n",
			b.Start.Seconds(), b.TargetRate, b.Offered,
			b.Counts[ClassOK], b.Counts[ClassThrottled], b.Counts[ClassOverload],
			b.Counts[ClassOther], b.Counts[ClassTimeout], b.Counts[ClassTransport], b.Counts[ClassShed],
			float64(b.P50)/float64(time.Millisecond), float64(b.P99)/float64(time.Millisecond),
			b.QueueDepth)
		if err != nil {
			return err
		}
	}
	return nil
}

// timelineJSON is the stable JSON shape of a serialized run.
type timelineJSON struct {
	Profile    string         `json:"profile"`
	Mode       string         `json:"mode"`
	DurationS  float64        `json:"duration_s"`
	TimeScale  float64        `json:"time_scale"`
	TickS      float64        `json:"tick_s"`
	WallS      float64        `json:"wall_s"`
	Offered    int            `json:"offered"`
	Counts     map[string]int `json:"counts"`
	RetryAfter map[string]int `json:"retry_after"`
	Buckets    []bucketJSON   `json:"buckets"`
}

type bucketJSON struct {
	SimOffsetS float64        `json:"sim_offset_s"`
	TargetRate float64        `json:"target_rate"`
	Offered    int            `json:"offered"`
	Counts     map[string]int `json:"counts"`
	P50Ms      float64        `json:"p50_ms"`
	P99Ms      float64        `json:"p99_ms"`
	QueueDepth float64        `json:"queue_depth"`
}

// WriteJSON emits the whole result (totals + timeline) as one JSON document.
func (r *Result) WriteJSON(w io.Writer) error {
	doc := timelineJSON{
		Profile:    r.Profile,
		Mode:       r.Mode.String(),
		DurationS:  r.Duration.Seconds(),
		TimeScale:  r.TimeScale,
		TickS:      r.Tick.Seconds(),
		WallS:      r.WallElapsed.Seconds(),
		Offered:    r.Offered,
		Counts:     classMap(r.Counts),
		RetryAfter: r.RetryAfter,
	}
	for _, b := range r.Buckets {
		doc.Buckets = append(doc.Buckets, bucketJSON{
			SimOffsetS: b.Start.Seconds(),
			TargetRate: b.TargetRate,
			Offered:    b.Offered,
			Counts:     classMap(b.Counts),
			P50Ms:      float64(b.P50) / float64(time.Millisecond),
			P99Ms:      float64(b.P99) / float64(time.Millisecond),
			QueueDepth: b.QueueDepth,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func classMap(counts [numClasses]int) map[string]int {
	m := make(map[string]int, numClasses)
	for c := 0; c < numClasses; c++ {
		if counts[c] != 0 {
			m[Class(c).String()] = counts[c]
		}
	}
	return m
}
