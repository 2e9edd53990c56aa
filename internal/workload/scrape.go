package workload

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ScrapeMetrics fetches base+"/metrics" and parses the flat Prometheus text
// exposition into series -> value, keyed "name" or `name{labels}` exactly as
// exposed. The driver samples queue depth from it at bucket boundaries, and
// vista-load diffs before/after scrapes to reconcile the server's admission
// counters against the client-observed response classes.
func ScrapeMetrics(ctx context.Context, client Doer, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("workload: scrape: %w", err)
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("workload: scrape: /metrics returned %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// drainBody consumes and closes a response body so the transport can reuse
// the connection.
func drainBody(resp *http.Response) {
	if resp.Body == nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// Reconcile diffs the server's /metrics scrapes from before and after a run
// against the client's books in res and returns every violated invariant:
//
//   - every 200 was admitted, every 429 a deadline rejection, every 503 a
//     queue-full or oversize rejection;
//   - vista_admission_cancelled_total grew by no more than the requests the
//     client abandoned (timeouts and interrupted requests);
//   - nothing remains in flight or queued once the run has drained.
//
// When the server exports vista_share_runs_total (it runs with -share), the
// sharing contract joins: every admitted run took exactly one role
// (leader + follower + solo == admitted), the coordinator gauges drained,
// and no group member aborted unless the client saw a failure. The checks
// are exact, so the run must be the server's sole driver.
func Reconcile(before, after map[string]float64, res *Result) []error {
	delta := func(series string) float64 { return after[series] - before[series] }
	var errs []error
	pairs := []struct {
		series string
		want   int
		what   string
	}{
		{"vista_admission_admitted_total", res.Counts[ClassOK], "200s"},
		{`vista_admission_rejected_total{reason="deadline"}`, res.Counts[ClassThrottled], "429s"},
	}
	for _, p := range pairs {
		if got := delta(p.series); got != float64(p.want) {
			errs = append(errs, fmt.Errorf("server %s grew by %g, client saw %d %s", p.series, got, p.want, p.what))
		}
	}
	// 503s split across two reasons; compare their sum.
	got503 := delta(`vista_admission_rejected_total{reason="queue_full"}`) + delta(`vista_admission_rejected_total{reason="oversize"}`)
	if got503 != float64(res.Counts[ClassOverload]) {
		errs = append(errs, fmt.Errorf("server 503-reason counters grew by %g, client saw %d 503s", got503, res.Counts[ClassOverload]))
	}
	abandoned := res.Counts[ClassTimeout] + res.Counts[ClassShed]
	if got := delta("vista_admission_cancelled_total"); got > float64(abandoned) {
		errs = append(errs, fmt.Errorf("server vista_admission_cancelled_total grew by %g, client abandoned only %d requests", got, abandoned))
	}
	drained := []string{"vista_admission_inflight_bytes", "vista_admission_inflight_runs", "vista_admission_queue_depth"}
	if _, sharing := after[`vista_share_runs_total{role="solo"}`]; sharing {
		roles := delta(`vista_share_runs_total{role="leader"}`) + delta(`vista_share_runs_total{role="follower"}`) +
			delta(`vista_share_runs_total{role="solo"}`)
		if admitted := delta("vista_admission_admitted_total"); roles != admitted {
			errs = append(errs, fmt.Errorf("server share roles grew by %g, admitted by %g: a run escaped the exactly-one-role invariant", roles, admitted))
		}
		if got := delta("vista_share_aborted_total"); got != 0 && res.Counts[ClassOK] == res.Offered {
			errs = append(errs, fmt.Errorf("server vista_share_aborted_total grew by %g, client saw no failure", got))
		}
		drained = append(drained, "vista_share_open_groups", "vista_share_waiting_members", "vista_share_live_groups")
	}
	for _, gauge := range drained {
		if v, ok := after[gauge]; ok && v != 0 {
			errs = append(errs, fmt.Errorf("server %s = %g after drain, want 0", gauge, v))
		}
	}
	return errs
}
