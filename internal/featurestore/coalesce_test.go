package featurestore

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataflow"
)

// TestPutDedupSkipsIdenticalContent is the regression test for the
// duplicate-work race's second half: two runs that both computed the same
// feature table must not rewrite (and double-journal) the identical entry.
// Pre-fix, the second Put replaced the entry and the dedup counter stayed 0.
func TestPutDedupSkipsIdenticalContent(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rows := featRows(1, 16, 8)
	k := testKey(3, Feature)
	if err := s.Put(k, rows); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	if err := s.Put(k, rows); err != nil {
		t.Fatalf("identical Put: %v", err)
	}
	st := s.Snapshot()
	if st.Puts != 1 || st.DedupPuts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 put + 1 dedup over 1 entry", st)
	}

	// Different content under the same key is a real replace, not a dedup.
	if err := s.Put(k, featRows(2, 16, 8)); err != nil {
		t.Fatalf("replacing Put: %v", err)
	}
	st = s.Snapshot()
	if st.Puts != 2 || st.DedupPuts != 1 {
		t.Errorf("stats after replace = %+v, want 2 puts + 1 dedup", st)
	}
}

// TestGetOrFillRunsFillOnce is the regression test for the duplicate-work
// race itself: N concurrent misses on the same key must run the fill exactly
// once, with every other caller coalescing onto the in-flight computation.
// Pre-fix (plain Get-miss → compute → Put), every caller computed.
func TestGetOrFillRunsFillOnce(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(5, Feature)
	want := featRows(7, 8, 4)

	const parallel = 16
	var fills atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]dataflow.Row, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, _, err := s.GetOrFill(k, func() ([]dataflow.Row, error) {
				fills.Add(1)
				<-release // hold the flight open until everyone has arrived
				return featRows(7, 8, 4), nil
			})
			if err != nil {
				t.Errorf("GetOrFill: %v", err)
			}
			results[i] = rows
		}(i)
	}
	// Wait until one fill is in flight and every other caller is parked on
	// it, then let it complete.
	for fills.Load() == 0 || s.waitersOn(k) != parallel-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times for %d concurrent misses, want once", got, parallel)
	}
	wantBlob, _ := dataflow.EncodeRows(want)
	for i, rows := range results {
		blob, err := dataflow.EncodeRows(rows)
		if err != nil {
			t.Fatalf("caller %d re-encode: %v", i, err)
		}
		if string(blob) != string(wantBlob) {
			t.Errorf("caller %d got different rows", i)
		}
	}

	// Sharers get deep copies: mutating one caller's rows must not leak into
	// another's.
	if len(results[0]) > 0 && results[0][0].Features.Len() > 0 {
		results[0][0].Features.Get(0).Data()[0] = -999
		if results[1][0].Features.Get(0).Data()[0] == -999 {
			t.Error("coalesced callers share backing tensors")
		}
	}

	st := s.Snapshot()
	if st.Coalesced != parallel-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, parallel-1)
	}
	// The winner's Put materialized the entry; a later Get hits.
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Errorf("entry not materialized after fill: ok=%v err=%v", ok, err)
	}
	if s.flightsLen() != 0 {
		t.Errorf("%d flights leaked", s.flightsLen())
	}
}

// TestGetOrFillPropagatesFillError checks that a failed fill fails every
// coalesced caller, leaves nothing in the store, and clears the flight so a
// later caller retries.
func TestGetOrFillPropagatesFillError(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(6, Feature)
	boom := errors.New("fill exploded")

	var fills atomic.Int64
	release := make(chan struct{})
	const parallel = 4
	var wg sync.WaitGroup
	errs := make([]error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := s.GetOrFill(k, func() ([]dataflow.Row, error) {
				fills.Add(1)
				<-release
				return nil, boom
			})
			errs[i] = err
		}(i)
	}
	for fills.Load() == 0 || s.waitersOn(k) != parallel-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want once", got)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d error = %v, want the fill's error", i, err)
		}
	}
	if _, ok, _ := s.Get(k); ok {
		t.Error("failed fill left an entry behind")
	}
	// The flight is gone: a retry runs the fill again and succeeds.
	rows, filled, err := s.GetOrFill(k, func() ([]dataflow.Row, error) {
		return featRows(9, 4, 4), nil
	})
	if err != nil || !filled || len(rows) != 4 {
		t.Errorf("retry after failed fill: rows=%d filled=%v err=%v", len(rows), filled, err)
	}
	if s.flightsLen() != 0 {
		t.Errorf("%d flights leaked", s.flightsLen())
	}
}

// TestGetOrFillHitSkipsFill checks the fast path: a materialized entry is
// served without invoking the fill at all.
func TestGetOrFillHitSkipsFill(t *testing.T) {
	s, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := testKey(7, Feature)
	if err := s.Put(k, featRows(3, 8, 4)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rows, filled, err := s.GetOrFill(k, func() ([]dataflow.Row, error) {
		t.Error("fill invoked on a hit")
		return nil, nil
	})
	if err != nil || filled || len(rows) != 8 {
		t.Errorf("hit path: rows=%d filled=%v err=%v", len(rows), filled, err)
	}
}

// flightsLen reports in-flight fills (white-box, for leak checks).
func (s *Store) flightsLen() int {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return len(s.flights)
}

// waitersOn reports how many callers are parked on k's in-flight fill (0
// when no fill is in flight).
func (s *Store) waitersOn(k Key) int {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if f, ok := s.flights[k.id()]; ok {
		return f.waiters
	}
	return 0
}
