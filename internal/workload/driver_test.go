package workload

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// scriptedDoer answers requests from a fixed response script (cycled) for
// POST /run and a canned Prometheus exposition for GET /metrics, so driver
// tests exercise the full pacing/classification path with no sockets.
type scriptedDoer struct {
	mu      sync.Mutex
	script  []scriptResp
	i       int
	calls   atomic.Int64
	scrapes atomic.Int64
	// block, when non-nil, parks every /run request until the channel
	// closes — for exercising the in-flight cap.
	block chan struct{}
}

type scriptResp struct {
	code       int
	retryAfter string
}

func (s *scriptedDoer) Do(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet {
		s.scrapes.Add(1)
		return textResponse(200, "vista_admission_queue_depth 3\nvista_admission_admitted_total 17\n"), nil
	}
	s.calls.Add(1)
	if s.block != nil {
		select {
		case <-s.block:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	s.mu.Lock()
	r := s.script[s.i%len(s.script)]
	s.i++
	s.mu.Unlock()
	resp := textResponse(r.code, "{}")
	if r.retryAfter != "" {
		resp.Header.Set("Retry-After", r.retryAfter)
	}
	return resp, nil
}

func textResponse(code int, body string) *http.Response {
	return &http.Response{
		StatusCode: code,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

// stepLoop hands the driver's pacing loop exactly n steps, one at a time:
// advance one quantum, then wait for the loop to consume it.
func stepLoop(t *testing.T, d *atomic.Int64, fc *clock.Fake, n int) {
	t.Helper()
	base := d.Load()
	for i := 0; i < n; i++ {
		fc.Advance(wallStep)
		for d.Load() < base+int64(i)+1 {
			runtime.Gosched()
		}
	}
}

type runOut struct {
	res *Result
	err error
}

// runInstrumented is Run with the pacing-step counter swapped for the
// test's, so fake-clock tests can hand the loop one step at a time.
func runInstrumented(cfg Config, ticks *atomic.Int64) (*Result, error) {
	d, err := newDriver(cfg)
	if err != nil {
		return nil, err
	}
	d.loopTicks = ticks
	return d.run(context.Background())
}

func TestOpenLoopDeterministicSchedule(t *testing.T) {
	fc := clock.NewFake()
	doer := &scriptedDoer{script: []scriptResp{{code: 200}}}
	ticks := new(atomic.Int64)
	out := make(chan runOut, 1)
	go func() {
		res, err := runInstrumented(Config{
			BaseURL:  "http://stub",
			Pattern:  mustParse(t, "const(100)"),
			Duration: time.Second,
			Tick:     250 * time.Millisecond,
			Client:   doer,
			Clock:    fc,
		}, ticks)
		out <- runOut{res, err}
	}()
	fc.BlockUntil(1) // pacing ticker armed

	// const(100) at 10ms steps accrues exactly 1 launch per step; the step
	// landing on sim t=1s ends the run instead of launching.
	stepLoop(t, ticks, fc, 99)
	fc.Advance(wallStep)
	r := <-out
	if r.err != nil {
		t.Fatalf("Run: %v", r.err)
	}
	res := r.res
	if res.Offered != 99 {
		t.Errorf("offered = %d, want exactly 99 (deterministic accumulator)", res.Offered)
	}
	if res.Counts[ClassOK] != 99 {
		t.Errorf("ok = %d, want 99 (stub always answers 200)", res.Counts[ClassOK])
	}
	if errs := res.Verify(Checks{}); len(errs) != 0 {
		t.Errorf("clean run violated invariants: %v", errs)
	}
	if len(res.Buckets) != 4 {
		t.Fatalf("buckets = %d, want 4 (1s / 250ms)", len(res.Buckets))
	}
	// Launches are recorded in the bucket of their launch instant; with a
	// constant rate each quarter gets a quarter of the offers (the first
	// tick of each later bucket lands exactly on the boundary).
	for i, b := range res.Buckets {
		if b.Offered < 24 || b.Offered > 26 {
			t.Errorf("bucket %d offered = %d, want ~25", i, b.Offered)
		}
		if b.TargetRate != 100 {
			t.Errorf("bucket %d target rate = %v, want 100", i, b.TargetRate)
		}
	}
}

func TestOpenLoopClassifiesAndCollectsRetryAfter(t *testing.T) {
	fc := clock.NewFake()
	doer := &scriptedDoer{script: []scriptResp{
		{code: 200},
		{code: 429, retryAfter: "7"},
		{code: 503},
		{code: 429, retryAfter: "3"},
		{code: 418},
	}}
	ticks := new(atomic.Int64)
	out := make(chan runOut, 1)
	go func() {
		res, err := runInstrumented(Config{
			BaseURL:  "http://stub",
			Pattern:  mustParse(t, "const(100)"),
			Duration: 500 * time.Millisecond,
			Client:   doer,
			Clock:    fc,
		}, ticks)
		out <- runOut{res, err}
	}()
	fc.BlockUntil(1)
	stepLoop(t, ticks, fc, 49)
	fc.Advance(wallStep)
	r := <-out
	if r.err != nil {
		t.Fatalf("Run: %v", r.err)
	}
	res := r.res
	// 49 launches cycle the 5-entry script: 10,10,10,10,9.
	want := map[Class]int{ClassOK: 10, ClassThrottled: 20, ClassOverload: 10, ClassOther: 9}
	for class, n := range want {
		if res.Counts[class] != n {
			t.Errorf("%v = %d, want %d", class, res.Counts[class], n)
		}
	}
	if res.RetryAfter["7"] != 10 || res.RetryAfter["3"] != 10 || len(res.RetryAfter) != 2 {
		t.Errorf("RetryAfter = %v, want {7:10, 3:10}", res.RetryAfter)
	}
	if errs := res.Verify(Checks{MinDistinctRetryAfter: 2}); len(errs) == 0 {
		t.Error("Verify passed despite 9 out-of-contract 418s")
	}
}

func TestOpenLoopShedsAtInFlightCap(t *testing.T) {
	fc := clock.NewFake()
	doer := &scriptedDoer{script: []scriptResp{{code: 200}}, block: make(chan struct{})}
	ticks := new(atomic.Int64)
	out := make(chan runOut, 1)
	go func() {
		res, err := runInstrumented(Config{
			BaseURL:     "http://stub",
			Pattern:     mustParse(t, "const(100)"),
			Duration:    300 * time.Millisecond,
			Client:      doer,
			Clock:       fc,
			MaxInFlight: 2,
		}, ticks)
		out <- runOut{res, err}
	}()
	fc.BlockUntil(1)
	// Launch a few requests; the first two park in the blocked doer, the
	// rest shed at the cap.
	stepLoop(t, ticks, fc, 10)
	for doer.calls.Load() < 2 {
		runtime.Gosched()
	}
	close(doer.block)
	stepLoop(t, ticks, fc, 19)
	fc.Advance(wallStep)
	r := <-out
	if r.err != nil {
		t.Fatalf("Run: %v", r.err)
	}
	res := r.res
	if res.Offered != 29 {
		t.Fatalf("offered = %d, want 29", res.Offered)
	}
	if res.Counts[ClassShed] == 0 {
		t.Error("no driver-side shed despite a 2-deep in-flight cap under a blocked server")
	}
	if got := res.Counts[ClassOK] + res.Counts[ClassShed]; got != res.Offered {
		t.Errorf("ok %d + shed %d != offered %d", res.Counts[ClassOK], res.Counts[ClassShed], res.Offered)
	}
	if errs := res.Verify(Checks{}); len(errs) == 0 {
		t.Error("Verify(MaxShed 0) passed despite shed requests")
	}
	if errs := res.Verify(Checks{MaxShed: res.Counts[ClassShed]}); len(errs) != 0 {
		t.Errorf("Verify with shed allowance still failed: %v", errs)
	}
}

func TestOpenLoopScrapesQueueDepth(t *testing.T) {
	fc := clock.NewFake()
	doer := &scriptedDoer{script: []scriptResp{{code: 200}}}
	ticks := new(atomic.Int64)
	out := make(chan runOut, 1)
	go func() {
		res, err := runInstrumented(Config{
			BaseURL:          "http://stub",
			Pattern:          mustParse(t, "const(10)"),
			Duration:         400 * time.Millisecond,
			Tick:             100 * time.Millisecond,
			Client:           doer,
			Clock:            fc,
			ScrapeQueueDepth: true,
		}, ticks)
		out <- runOut{res, err}
	}()
	fc.BlockUntil(1)
	stepLoop(t, ticks, fc, 39)
	fc.Advance(wallStep)
	r := <-out
	if r.err != nil {
		t.Fatalf("Run: %v", r.err)
	}
	res := r.res
	// Buckets 0..2 get a boundary scrape when the loop crosses into the
	// next bucket; the final bucket has no successor boundary inside the run.
	for i := 0; i < 3; i++ {
		if res.Buckets[i].QueueDepth != 3 {
			t.Errorf("bucket %d queue depth = %v, want 3 (scraped)", i, res.Buckets[i].QueueDepth)
		}
	}
	if res.Buckets[3].QueueDepth != -1 {
		t.Errorf("final bucket queue depth = %v, want -1 (never scraped)", res.Buckets[3].QueueDepth)
	}
	if doer.scrapes.Load() != 3 {
		t.Errorf("scrapes = %d, want 3 (one per interior boundary)", doer.scrapes.Load())
	}
}

// TestClosedLoopHonorsRetryAfter is the client half of the herd fix: a
// closed-loop worker that receives a 429 must stay away for the hinted
// backoff. The stub always throttles with a hint longer than the whole run,
// so each worker attempts exactly once — a client that ignored Retry-After
// would hammer the server hundreds of times in the same window.
func TestClosedLoopHonorsRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:   srv.URL,
		Body:      "{}",
		Pattern:   mustParse(t, "const(3)"),
		Duration:  2 * time.Second,
		TimeScale: 10, // 200ms wall
		Mode:      ClosedLoop,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Offered != 3 {
		t.Errorf("offered = %d, want exactly 3 (one per worker, then backoff)", res.Offered)
	}
	if res.Counts[ClassThrottled] != res.Offered {
		t.Errorf("throttled = %d, want %d", res.Counts[ClassThrottled], res.Offered)
	}
	if res.RetryAfter["30"] != res.Offered {
		t.Errorf("RetryAfter = %v, want all %d under key \"30\"", res.RetryAfter, res.Offered)
	}
}

// TestClosedLoopAgainstLiveServer drives a real (stub-handler) HTTP server
// end to end in closed loop and checks the books balance.
func TestClosedLoopAgainstLiveServer(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:   srv.URL,
		Body:      "{}",
		Pattern:   mustParse(t, "const(2)"),
		Duration:  time.Second,
		TimeScale: 5, // 200ms wall
		Mode:      ClosedLoop,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Offered == 0 {
		t.Fatal("closed loop offered nothing against a healthy server")
	}
	// Workers cancelled mid-request at run end are shed, not failed.
	if errs := res.Verify(Checks{MaxShed: res.Offered}); len(errs) != 0 {
		t.Errorf("invariants: %v", errs)
	}
	if res.Counts[ClassOK] == 0 {
		t.Error("no successes recorded")
	}
}

func TestVerifyOffPeakLatency(t *testing.T) {
	res := &Result{
		Offered: 2,
		Buckets: []Bucket{
			{Start: 0, TargetRate: 1, P50: 10 * time.Millisecond, P99: 3 * time.Second},
			{Start: time.Hour, TargetRate: 50, P99: 10 * time.Second}, // peak: exempt
		},
	}
	res.Counts[ClassOK] = 2
	errs := res.Verify(Checks{OffPeakP99: time.Second, OffPeakBelow: 5})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "off-peak") {
		t.Errorf("Verify = %v, want exactly the off-peak p99 violation", errs)
	}
}

func TestVerifyReconciliation(t *testing.T) {
	res := &Result{Offered: 5}
	res.Counts[ClassOK] = 4 // one request vanished
	errs := res.Verify(Checks{})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "escaped classification") {
		t.Errorf("Verify = %v, want the reconciliation violation", errs)
	}
}

// TestVerifyRetryAfterHints: a 429 without Retry-After is a violation of
// its own, and it does not count as a distinct hint, so one hint-less 429
// next to a constant hint still trips the herd gate.
func TestVerifyRetryAfterHints(t *testing.T) {
	res := &Result{Offered: 5, RetryAfter: map[string]int{"": 1, "4": 4}}
	res.Counts[ClassThrottled] = 5
	errs := res.Verify(Checks{MinDistinctRetryAfter: 2})
	if len(errs) != 2 {
		t.Fatalf("Verify = %v, want the missing-header and the herd violations", errs)
	}
	if !strings.Contains(errs[0].Error(), "1 429s carried no Retry-After header") {
		t.Errorf("first violation = %q, want the missing header", errs[0])
	}
	if !strings.Contains(errs[1].Error(), "only 1 distinct Retry-After value") {
		t.Errorf("second violation = %q, want the herd gate", errs[1])
	}
	if !strings.Contains(res.Summary(), "distinct-retry-after=1") {
		t.Errorf("summary = %q, want distinct-retry-after=1", res.Summary())
	}
}

func TestTimelineOutputs(t *testing.T) {
	res := &Result{
		Profile: "const(5)", Duration: time.Second, TimeScale: 1, Tick: 500 * time.Millisecond,
		Offered:    10,
		RetryAfter: map[string]int{"2": 3},
		Buckets: []Bucket{
			{Start: 0, TargetRate: 5, Offered: 5, P50: 10 * time.Millisecond, P99: 20 * time.Millisecond, QueueDepth: 2},
			{Start: 500 * time.Millisecond, TargetRate: 5, Offered: 5, QueueDepth: -1},
		},
	}
	res.Counts[ClassOK] = 7
	res.Counts[ClassThrottled] = 3

	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 buckets:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "sim_offset_s,target_rate,offered,ok,") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.000,5.000,5,") {
		t.Errorf("first CSV row = %q", lines[1])
	}

	var js strings.Builder
	if err := res.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{`"profile": "const(5)"`, `"offered": 10`, `"retry_after"`, `"queue_depth": -1`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON output missing %s", want)
		}
	}
}

func TestQuantile(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sample := []time.Duration{ms(5), ms(1), ms(3), ms(2), ms(4)}
	if got := quantile(sample, 0.5); got != ms(3) {
		t.Errorf("p50 = %v, want 3ms", got)
	}
	if got := quantile(sample, 0.99); got != ms(5) {
		t.Errorf("p99 = %v, want 5ms", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// quantile must not mutate its input.
	if sample[0] != ms(5) {
		t.Error("quantile sorted the caller's sample in place")
	}
}

func TestScrapeMetrics(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# HELP x y\nvista_admission_queue_depth 4\nvista_http_requests_total{code=\"200\"} 17\nmalformed\n")
	}))
	defer srv.Close()
	m, err := ScrapeMetrics(context.Background(), http.DefaultClient, srv.URL)
	if err != nil {
		t.Fatalf("ScrapeMetrics: %v", err)
	}
	if m["vista_admission_queue_depth"] != 4 {
		t.Errorf("queue depth = %v, want 4", m["vista_admission_queue_depth"])
	}
	if m[`vista_http_requests_total{code="200"}`] != 17 {
		t.Errorf("labeled series = %v, want 17", m[`vista_http_requests_total{code="200"}`])
	}
}
