package main

import (
	"container/list"
	"sync"

	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
)

// datasetBudgetBytes bounds the datasets the memo retains, summed by
// dataflow.Row.MemBytes: a 250-row Foods dataset costs about 10.8 MB.
const datasetBudgetBytes = 64 << 20

// dataset is one synthesized /run input and its image-content checksum.
// The rows are shared by every request that hits the memo, so they are
// read-only: the engine copies rows into partitions, PartitionFuncs return
// new slices, and core.Run copies the image table before stripping it. The
// slices have cap == len, so an append reallocates instead of writing into
// the memo's backing array.
type dataset struct {
	structRows, imageRows []dataflow.Row
	// sum is featurestore.DataChecksum(imageRows), computed once.
	sum string
	// bytes is the rows' summed MemBytes, the memo's budget charge.
	bytes int64
}

// datasetMemo keeps recently served datasets, keyed by their full
// data.Spec: a dataset is a pure function of its spec, and /run's spec
// depends only on the request's dataset and rows. Entries are evicted
// least-recently-used to keep their summed bytes within budget; a dataset
// larger than the whole budget is served but never retained. Concurrent
// misses on one spec each generate it, and the first insert wins.
type datasetMemo struct {
	budget int64

	mu      sync.Mutex
	bytes   int64
	lru     *list.List // of *memoEntry, most recently used first
	entries map[data.Spec]*list.Element
}

type memoEntry struct {
	spec data.Spec
	ds   *dataset
}

func newDatasetMemo(budget int64) *datasetMemo {
	return &datasetMemo{budget: budget, lru: list.New(), entries: make(map[data.Spec]*list.Element)}
}

// get returns spec's dataset, generating (and possibly retaining) it on a
// miss.
func (m *datasetMemo) get(spec data.Spec) (*dataset, error) {
	m.mu.Lock()
	if el, ok := m.entries[spec]; ok {
		m.lru.MoveToFront(el)
		m.mu.Unlock()
		return el.Value.(*memoEntry).ds, nil
	}
	m.mu.Unlock()

	structRows, imageRows, err := data.Generate(spec)
	if err != nil {
		return nil, err
	}
	ds := &dataset{
		structRows: structRows[:len(structRows):len(structRows)],
		imageRows:  imageRows[:len(imageRows):len(imageRows)],
		sum:        featurestore.DataChecksum(imageRows),
	}
	for i := range structRows {
		ds.bytes += structRows[i].MemBytes() + imageRows[i].MemBytes()
	}
	if ds.bytes > m.budget {
		return ds, nil
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[spec]; ok { // a concurrent miss inserted first
		m.lru.MoveToFront(el)
		return el.Value.(*memoEntry).ds, nil
	}
	for m.bytes+ds.bytes > m.budget {
		oldest := m.lru.Back()
		e := oldest.Value.(*memoEntry)
		m.lru.Remove(oldest)
		delete(m.entries, e.spec)
		m.bytes -= e.ds.bytes
	}
	m.entries[spec] = m.lru.PushFront(&memoEntry{spec: spec, ds: ds})
	m.bytes += ds.bytes
	return ds, nil
}
