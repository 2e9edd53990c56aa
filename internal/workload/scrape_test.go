package workload

import (
	"strings"
	"testing"
)

// TestReconcile runs Reconcile against canned before/after scrapes. Each
// case names the violations it expects by substring; an empty list means
// the books must balance.
func TestReconcile(t *testing.T) {
	admission := func(admitted, deadline, queueFull, cancelled float64) map[string]float64 {
		return map[string]float64{
			"vista_admission_admitted_total":                      admitted,
			`vista_admission_rejected_total{reason="deadline"}`:   deadline,
			`vista_admission_rejected_total{reason="queue_full"}`: queueFull,
			`vista_admission_rejected_total{reason="oversize"}`:   0,
			"vista_admission_cancelled_total":                     cancelled,
			"vista_admission_inflight_bytes":                      0,
			"vista_admission_inflight_runs":                       0,
			"vista_admission_queue_depth":                         0,
		}
	}
	// sharing extends an admission scrape with the vista_share_* series.
	sharing := func(m map[string]float64, leader, follower, solo, aborted, openGroups float64) map[string]float64 {
		m[`vista_share_runs_total{role="leader"}`] = leader
		m[`vista_share_runs_total{role="follower"}`] = follower
		m[`vista_share_runs_total{role="solo"}`] = solo
		m["vista_share_aborted_total"] = aborted
		m["vista_share_open_groups"] = openGroups
		m["vista_share_waiting_members"] = 0
		m["vista_share_live_groups"] = 0
		return m
	}
	books := func(ok, throttled, overload, timeout int) *Result {
		r := &Result{Offered: ok + throttled + overload + timeout}
		r.Counts[ClassOK] = ok
		r.Counts[ClassThrottled] = throttled
		r.Counts[ClassOverload] = overload
		r.Counts[ClassTimeout] = timeout
		return r
	}

	cases := []struct {
		name          string
		before, after map[string]float64
		res           *Result
		want          []string
	}{
		{
			name:   "exact match",
			before: admission(10, 2, 1, 0),
			after:  admission(15, 5, 3, 0),
			res:    books(5, 3, 2, 0),
		},
		{
			name:   "admitted mismatch",
			before: admission(0, 0, 0, 0),
			after:  admission(4, 0, 0, 0),
			res:    books(5, 0, 0, 0),
			want:   []string{"vista_admission_admitted_total grew by 4, client saw 5"},
		},
		{
			name:   "share roles sum to admitted",
			before: sharing(admission(0, 0, 0, 0), 1, 1, 1, 0, 0),
			after:  sharing(admission(8, 0, 0, 0), 3, 5, 3, 0, 0),
			res:    books(8, 0, 0, 0),
		},
		{
			name:   "share roles differ from admitted",
			before: sharing(admission(0, 0, 0, 0), 0, 0, 0, 0, 0),
			after:  sharing(admission(8, 0, 0, 0), 2, 5, 0, 0, 0),
			res:    books(8, 0, 0, 0),
			want:   []string{"share roles grew by 7, admitted by 8"},
		},
		{
			name:   "undrained share gauge",
			before: sharing(admission(0, 0, 0, 0), 0, 0, 0, 0, 0),
			after:  sharing(admission(4, 0, 0, 0), 1, 3, 0, 0, 1),
			res:    books(4, 0, 0, 0),
			want:   []string{"vista_share_open_groups = 1 after drain"},
		},
		{
			name:   "share abort with no client failure",
			before: sharing(admission(0, 0, 0, 0), 0, 0, 0, 0, 0),
			after:  sharing(admission(4, 0, 0, 0), 1, 3, 0, 1, 0),
			res:    books(4, 0, 0, 0),
			want:   []string{"vista_share_aborted_total grew by 1, client saw no failure"},
		},
		{
			name:   "share abort explained by a client failure",
			before: sharing(admission(0, 0, 0, 0), 0, 0, 0, 0, 0),
			after:  sharing(admission(4, 1, 0, 0), 1, 3, 0, 1, 0),
			res:    books(4, 1, 0, 0),
		},
		{
			name:   "cancelled with nothing abandoned",
			before: admission(0, 0, 0, 0),
			after:  admission(3, 0, 0, 1),
			res:    books(3, 0, 0, 0),
			want:   []string{"vista_admission_cancelled_total grew by 1, client abandoned only 0"},
		},
		{
			name:   "cancelled within the abandoned requests",
			before: admission(0, 0, 0, 0),
			after:  admission(3, 0, 0, 1),
			res:    books(3, 0, 0, 2),
		},
		{
			name:   "no share series: share checks skipped",
			before: admission(0, 0, 0, 0),
			after:  admission(6, 0, 0, 0),
			res:    books(6, 0, 0, 0),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := Reconcile(tc.before, tc.after, tc.res)
			if len(errs) != len(tc.want) {
				t.Fatalf("Reconcile = %v, want %d violation(s) %q", errs, len(tc.want), tc.want)
			}
			for i, want := range tc.want {
				if !strings.Contains(errs[i].Error(), want) {
					t.Errorf("violation %d = %q, want it to mention %q", i, errs[i], want)
				}
			}
		})
	}
}
