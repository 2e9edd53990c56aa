package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/memory"
)

// rowsDigest hashes every field of every row (ID, label, structured
// features, image bytes, feature tensors), so any in-place write shows.
func rowsDigest(rows []dataflow.Row) [32]byte {
	var buf []byte
	for i := range rows {
		buf = dataflow.EncodeRow(buf, &rows[i])
	}
	return sha256.Sum256(buf)
}

// generated returns a fresh data.Generate of spec: the reference every memo
// answer must equal.
func generated(t *testing.T, spec data.Spec) (structRows, imageRows []dataflow.Row) {
	t.Helper()
	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return structRows, imageRows
}

func memoGet(t *testing.T, m *datasetMemo, spec data.Spec) *dataset {
	t.Helper()
	ds, err := m.get(spec)
	if err != nil {
		t.Fatalf("get %+v: %v", spec, err)
	}
	return ds
}

func TestDatasetMemoHitMatchesGenerate(t *testing.T) {
	m := newDatasetMemo(datasetBudgetBytes)
	spec := data.Foods().WithRows(30)
	miss := memoGet(t, m, spec)
	hit := memoGet(t, m, spec)
	if hit != miss {
		t.Fatal("second get of the same spec regenerated the dataset")
	}
	wantStruct, wantImage := generated(t, spec)
	if rowsDigest(hit.structRows) != rowsDigest(wantStruct) || rowsDigest(hit.imageRows) != rowsDigest(wantImage) {
		t.Fatal("memoized rows differ from data.Generate")
	}
	if want := featurestore.DataChecksum(wantImage); hit.sum != want {
		t.Fatalf("sum = %s, want DataChecksum %s", hit.sum, want)
	}
	if other := memoGet(t, m, data.Amazon().WithRows(30)); other.sum == hit.sum {
		t.Fatal("distinct specs share one memo entry")
	}
}

// TestDatasetMemoAppendCannotClobber: the memo hands out cap == len slices,
// so a caller's append reallocates rather than writing past the end of the
// shared backing array.
func TestDatasetMemoAppendCannotClobber(t *testing.T) {
	m := newDatasetMemo(datasetBudgetBytes)
	spec := data.Foods().WithRows(12)
	ds := memoGet(t, m, spec)
	if cap(ds.structRows) != len(ds.structRows) || cap(ds.imageRows) != len(ds.imageRows) {
		t.Fatalf("cap/len = %d/%d and %d/%d, want cap == len",
			cap(ds.structRows), len(ds.structRows), cap(ds.imageRows), len(ds.imageRows))
	}
	before := rowsDigest(ds.imageRows)
	grown := append(ds.imageRows, dataflow.Row{ID: -1, Image: []byte{1}})
	grown[0] = dataflow.Row{ID: -2}
	_ = append(ds.structRows, dataflow.Row{ID: -1})

	again := memoGet(t, m, spec)
	if len(again.imageRows) != 12 || rowsDigest(again.imageRows) != before {
		t.Fatal("appending to a returned slice changed the memoized dataset")
	}
}

func TestDatasetMemoBudget(t *testing.T) {
	spec := func(seed int64) data.Spec { s := data.Foods().WithRows(10); s.Seed = seed; return s }
	one := memoGet(t, newDatasetMemo(datasetBudgetBytes), spec(1)).bytes

	// Over budget: served, never retained.
	tiny := newDatasetMemo(one / 2)
	if ds := memoGet(t, tiny, spec(1)); len(ds.imageRows) != 10 {
		t.Fatalf("over-budget dataset served %d rows, want 10", len(ds.imageRows))
	}
	if len(tiny.entries) != 0 || tiny.bytes != 0 || tiny.lru.Len() != 0 {
		t.Fatalf("over-budget dataset retained: %d entries, %d bytes", len(tiny.entries), tiny.bytes)
	}

	// Room for two: the least recently used of three goes.
	m := newDatasetMemo(one * 5 / 2)
	a := memoGet(t, m, spec(1))
	memoGet(t, m, spec(2))
	memoGet(t, m, spec(1)) // touch a: spec(2) is now least recently used
	memoGet(t, m, spec(3))
	if m.bytes > m.budget {
		t.Fatalf("memo holds %d bytes over its %d budget", m.bytes, m.budget)
	}
	if _, ok := m.entries[spec(2)]; ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if len(m.entries) != 2 || m.lru.Len() != 2 {
		t.Fatalf("memo holds %d entries (%d listed), want 2", len(m.entries), m.lru.Len())
	}
	if memoGet(t, m, spec(1)) != a {
		t.Fatal("recently used entry was evicted")
	}
	var sum int64
	for _, el := range m.entries {
		sum += el.Value.(*memoEntry).ds.bytes
	}
	if sum != m.bytes {
		t.Fatalf("memo accounts %d bytes, entries hold %d", m.bytes, sum)
	}
}

// TestRunReportsDataSumOfGeneratedDataset: /run's cache.data_sum, on a memo
// miss and on a hit, is the checksum of a freshly generated dataset.
func TestRunReportsDataSumOfGeneratedDataset(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(64))
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler(store)
	_, imageRows := generated(t, data.Amazon().WithRows(20))
	want := featurestore.DataChecksum(imageRows)
	for i, seed := range []int{3, 4} {
		code, body := doJSON(t, h, "POST", "/run", fmt.Sprintf(
			`{"model":"tiny-alexnet","dataset":"amazon","layers":1,"rows":20,"seed":%d}`, seed))
		if code != http.StatusOK {
			t.Fatalf("run %d = %d %v", i, code, body)
		}
		if got := body["cache"].(map[string]any)["data_sum"]; got != want {
			t.Fatalf("run %d data_sum = %v, want %s", i, got, want)
		}
	}
}

// TestRunLeavesMemoizedRowsIntact guards against a run writing into the
// rows it shares with every later request (the same hazard as an aliased
// cached activation): the memoized dataset hashes identically before and
// after a cold and a warm /run.
func TestRunLeavesMemoizedRowsIntact(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(64))
	if err != nil {
		t.Fatal(err)
	}
	a := newAPI(serverConfig{store: store, sloP99: defaultSLOP99})
	h := a.handler()
	ds := memoGet(t, a.datasets, data.Foods().WithRows(30))
	structBefore, imageBefore := rowsDigest(ds.structRows), rowsDigest(ds.imageRows)

	for _, phase := range []string{"cold", "warm"} {
		code, body := doJSON(t, h, "POST", "/run",
			`{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":30}`)
		if code != http.StatusOK || body["crashed"] != false {
			t.Fatalf("%s run = %d %v", phase, code, body)
		}
		if rowsDigest(ds.structRows) != structBefore || rowsDigest(ds.imageRows) != imageBefore {
			t.Fatalf("%s /run modified the memoized dataset", phase)
		}
	}
	if memoGet(t, a.datasets, data.Foods().WithRows(30)) != ds {
		t.Fatal("/run did not serve the memoized dataset")
	}
}

// TestConcurrentRunsShareTheMemo runs same-key and distinct-key /run
// requests at once (meaningful under -race): every request succeeds with
// its dataset's checksum, and the memo ends holding each dataset intact.
func TestConcurrentRunsShareTheMemo(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(64))
	if err != nil {
		t.Fatal(err)
	}
	a := newAPI(serverConfig{store: store, sloP99: defaultSLOP99})
	h := a.handler()
	reqs := []struct {
		dataset string
		rows    int
		seed    int
	}{
		{"foods", 16, 7}, {"foods", 16, 7}, {"foods", 16, 7}, // same key
		{"foods", 16, 8}, {"foods", 12, 7}, {"amazon", 16, 7}, // distinct
	}
	specs := map[string]data.Spec{"foods": data.Foods(), "amazon": data.Amazon()}
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	for _, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/run", strings.NewReader(fmt.Sprintf(
				`{"model":"tiny-alexnet","dataset":%q,"layers":1,"rows":%d,"seed":%d}`, r.dataset, r.rows, r.seed))))
			var resp struct {
				Cache struct {
					DataSum string `json:"data_sum"`
				} `json:"cache"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
				errs <- fmt.Errorf("%+v: %d %s", r, rec.Code, rec.Body.String())
				return
			}
			_, imageRows, _ := data.Generate(specs[r.dataset].WithRows(r.rows))
			if want := featurestore.DataChecksum(imageRows); resp.Cache.DataSum != want {
				errs <- fmt.Errorf("%+v: data_sum %s, want %s", r, resp.Cache.DataSum, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(a.datasets.entries) != 3 {
		t.Fatalf("memo holds %d datasets, want 3", len(a.datasets.entries))
	}
	for spec, el := range a.datasets.entries {
		structRows, imageRows := generated(t, spec)
		ds := el.Value.(*memoEntry).ds
		if rowsDigest(ds.structRows) != rowsDigest(structRows) || rowsDigest(ds.imageRows) != rowsDigest(imageRows) {
			t.Fatalf("memoized %s/%d rows differ from data.Generate after concurrent runs", spec.Name, spec.Rows)
		}
	}
}

// TestRunKeysBounded serves more distinct workloads than the index holds:
// the index stays within its cap, the oldest workload is forgotten, and
// /simulate still sees the most recent one as warm.
func TestRunKeysBounded(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(64))
	if err != nil {
		t.Fatal(err)
	}
	a := newAPI(serverConfig{store: store, sloP99: defaultSLOP99})
	const limit = 3
	a.runKeys = newRunKeyIndex(limit)
	h := a.handler()
	body := func(seed int) string {
		return fmt.Sprintf(`{"model":"tiny-alexnet","dataset":"foods","layers":1,"rows":12,"seed":%d}`, seed)
	}
	const served = limit + 2
	for seed := 1; seed <= served; seed++ {
		if code, resp := doJSON(t, h, "POST", "/run", body(seed)); code != http.StatusOK {
			t.Fatalf("run seed %d = %d %v", seed, code, resp)
		}
		if n := len(a.runKeys.keys); n > limit || len(a.runKeys.order) != n {
			t.Fatalf("after %d workloads runKeys holds %d keys (%d ordered), cap %d",
				seed, n, len(a.runKeys.order), limit)
		}
	}
	if _, sim := doJSON(t, h, "POST", "/simulate", body(served)); sim["cached_layers"].(float64) <= 0 {
		t.Fatalf("most recent workload simulates cold: %v", sim["cached_layers"])
	}
	if _, sim := doJSON(t, h, "POST", "/simulate", body(1)); sim["cached_layers"].(float64) != 0 {
		t.Fatalf("evicted workload still simulates warm: %v", sim["cached_layers"])
	}
}
