package featurestore

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/faultinject"
)

// Failpoint sites (see internal/faultinject). The two writeFileAtomic base
// sites expand into ".create", ".write" (a byte site), and ".rename"
// sub-sites; the put.* sites are the kill-here points crash-consistency
// tests arm between the store's two persistence steps.
const (
	// FaultEntryWrite is the base site for entry-file writes; sub-sites:
	// featurestore/entry.create, featurestore/entry.write (bytes),
	// featurestore/entry.rename.
	FaultEntryWrite = "featurestore/entry"
	// FaultIndexWrite is the base site for index writes; sub-sites:
	// featurestore/index.create, featurestore/index.write (bytes),
	// featurestore/index.rename.
	FaultIndexWrite = "featurestore/index"
	// FaultEntryRead guards Get's entry-file read-back.
	FaultEntryRead = "featurestore/entry.read"
	// FaultPutEntryWritten sits between a Put's entry write and its index
	// persist — a kill here leaves an entry file the index knows nothing
	// about (or, on replace, a file whose size disagrees with the index).
	FaultPutEntryWritten = "featurestore/put.entry-written"
	// FaultPutIndexPersisted sits after a Put's index persist — combined
	// with SilentTruncate on featurestore/index.write it crashes the
	// process right after a torn index reached its final name.
	FaultPutIndexPersisted = "featurestore/put.index-persisted"
)

// Store is a content-addressed, disk-backed materialized store for CNN
// feature tables (DeepLens-style feature reuse). Entries are whole feature
// tables — one per (model, weights, data, layer, kind) key — serialized with
// the dataflow row codec and evicted LRU under a byte budget. The index is
// persisted so a restarted process (or a second one pointed at the same
// directory) resumes with the same contents and recency order.
type Store struct {
	dir    string
	budget int64 // bytes; <= 0 means unlimited

	mu      sync.Mutex
	entries map[string]*storeEntry // content address -> entry
	lru     *list.List             // front = most recently used
	used    int64
	clock   int64 // logical time for LRU persistence

	hits, misses, puts, evictions int64
	evictedBytes                  int64
	dedupPuts                     int64

	// flightMu guards the in-flight fill registry (GetOrFill); it is
	// separate from mu so sharers blocked on a fill never serialize plain
	// Get/Put traffic.
	flightMu  sync.Mutex
	flights   map[string]*flight
	coalesced int64
}

type storeEntry struct {
	key      Key
	id       string
	size     int64
	lastUsed int64
	elem     *list.Element
	// sum is the blob's content hash, known only for entries written by this
	// process (entries recovered from the index have hasSum == false and are
	// never dedup candidates).
	sum    [32]byte
	hasSum bool
}

// flight is one in-progress fill: the first misser computes, sharers wait on
// done and take deep copies of the result.
type flight struct {
	done    chan struct{}
	rows    []dataflow.Row
	err     error
	waiters int // sharers parked on done; guarded by Store.flightMu
}

const (
	entrySuffix = ".fse"
	indexName   = "index.vfs"
)

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Entries      int   `json:"entries"`
	UsedBytes    int64 `json:"used_bytes"`
	BudgetBytes  int64 `json:"budget_bytes"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Puts         int64 `json:"puts"`
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	// DedupPuts counts Puts whose payload was byte-identical to the entry
	// already stored under the key; the write was skipped (recency still
	// refreshed).
	DedupPuts int64 `json:"dedup_puts"`
	// Coalesced counts GetOrFill callers served by another caller's
	// in-flight fill instead of running the fill themselves.
	Coalesced int64 `json:"coalesced"`
}

// Open loads (or creates) a store rooted at dir with the given byte budget
// (<= 0 for unlimited). A corrupt index is not fatal: the directory is wiped
// and the store starts cold, since without a trustworthy index the entry
// files cannot be attributed to keys.
func Open(dir string, budget int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("featurestore: %w", err)
	}
	s := &Store{
		dir:     dir,
		budget:  budget,
		entries: make(map[string]*storeEntry),
		lru:     list.New(),
		clock:   1,
	}
	persisted, err := s.loadIndex()
	if err != nil {
		// Corrupt or unreadable index: recover by starting cold.
		persisted = nil
		s.wipeEntryFiles()
		os.Remove(filepath.Join(dir, indexName))
	}
	// Oldest first so list insertion at the front yields MRU→LRU order.
	for i := len(persisted) - 1; i >= 0; i-- {
		e := persisted[i]
		id := e.Key.id()
		if _, dup := s.entries[id]; dup || e.Size < 0 {
			continue
		}
		fi, statErr := os.Stat(s.entryPath(id))
		if statErr != nil || fi.Size() != e.Size {
			// Entry file lost or damaged since the index was written.
			os.Remove(s.entryPath(id))
			continue
		}
		se := &storeEntry{key: e.Key, id: id, size: e.Size, lastUsed: e.LastUsed}
		se.elem = s.lru.PushBack(se)
		s.entries[id] = se
		s.used += e.Size
		if e.LastUsed >= s.clock {
			s.clock = e.LastUsed + 1
		}
	}
	s.sweepTempFiles()
	s.removeOrphans()
	s.evictLocked(0)
	if len(s.entries) != len(persisted) || persisted == nil {
		s.persistIndexLocked()
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the rows cached under k, or ok=false on a miss. A hit refreshes
// the entry's recency. An entry whose file has become unreadable is dropped
// and reported as a miss rather than an error, so callers can always fall
// back to recomputation.
func (s *Store) Get(k Key) ([]dataflow.Row, bool, error) {
	id := k.id()
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	s.mu.Unlock()

	// Read and decode outside the lock: a single large-entry read must not
	// serialize every other request against the process-wide store. The
	// entry file may be replaced or removed meanwhile — rename-based writes
	// guarantee we still see a complete blob or a clean ENOENT.
	var rows []dataflow.Row
	blob, err := s.readEntry(id)
	if err == nil {
		rows, err = dataflow.DecodeRows(blob)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	cur, present := s.entries[id]
	if err != nil {
		// Unreadable or undecodable entry: drop it — unless it already
		// vanished (or was replaced) while we read — and report a miss so
		// callers fall back to recomputation.
		if present && cur == e {
			s.dropLocked(cur)
			s.persistIndexLocked()
		}
		s.misses++
		return nil, false, nil
	}
	if present {
		s.clock++
		cur.lastUsed = s.clock
		s.lru.MoveToFront(cur.elem)
	}
	s.hits++
	return rows, true, nil
}

// readEntry loads one entry file's blob (its failpoint site models a bad
// sector or lost file at read time).
func (s *Store) readEntry(id string) ([]byte, error) {
	if err := faultinject.Hit(FaultEntryRead); err != nil {
		return nil, err
	}
	return os.ReadFile(s.entryPath(id))
}

// Put materializes rows under k, evicting LRU entries as needed to respect
// the byte budget. A payload larger than the whole budget is skipped (not an
// error): caching it would only flush everything else for a single entry.
func (s *Store) Put(k Key, rows []dataflow.Row) error {
	blob, err := dataflow.EncodeRows(rows)
	if err != nil {
		return fmt.Errorf("featurestore: encode %s: %w", k, err)
	}
	size := int64(len(blob))
	sum := sha256.Sum256(blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && size > s.budget {
		return nil
	}
	id := k.id()
	if prev, ok := s.entries[id]; ok && prev.hasSum && prev.size == size && prev.sum == sum {
		// Identical content is already durable under this key — the classic
		// duplicate-work race (two runs miss, both compute, both Put). Skip
		// the disk write entirely; just refresh recency.
		s.clock++
		prev.lastUsed = s.clock
		s.lru.MoveToFront(prev.elem)
		s.dedupPuts++
		return nil
	}
	// Write the new blob before touching the existing entry: writeFileAtomic
	// replaces the old file only at its final rename, so a failed write
	// leaves a previous entry for the same key intact on disk and in memory
	// instead of destroying the old features and losing the key.
	if err := writeFileAtomic(FaultEntryWrite, s.entryPath(id), blob); err != nil {
		return fmt.Errorf("featurestore: write %s: %w", k, err)
	}
	if ferr := faultinject.Hit(FaultPutEntryWritten); ferr != nil {
		// Injected failure between entry write and index persist: roll the
		// key back entirely so disk and memory stay in agreement (the old
		// blob, if any, was already replaced by the rename above).
		if prev, ok := s.entries[id]; ok {
			s.dropLocked(prev)
			s.persistIndexLocked()
		} else {
			os.Remove(s.entryPath(id))
		}
		return fmt.Errorf("featurestore: write %s: %w", k, ferr)
	}
	if prev, ok := s.entries[id]; ok {
		// The rename already swapped the old blob out; detach the stale
		// in-memory entry without deleting the new file.
		s.detachLocked(prev)
	}
	s.evictLocked(size)
	s.clock++
	e := &storeEntry{key: k, id: id, size: size, lastUsed: s.clock, sum: sum, hasSum: true}
	e.elem = s.lru.PushFront(e)
	s.entries[id] = e
	s.used += size
	s.puts++
	if err := s.persistIndexLocked(); err != nil {
		// The entry itself is durable and usable; the stale index only
		// costs a cold entry after a crash (Open removes the orphan file).
		return fmt.Errorf("featurestore: persist index for %s: %w", k, err)
	}
	if ferr := faultinject.Hit(FaultPutIndexPersisted); ferr != nil {
		return fmt.Errorf("featurestore: %s: %w", k, ferr)
	}
	return nil
}

// GetOrFill returns the rows under k, computing them at most once across
// concurrent callers: a hit reads the store; on a miss the first caller runs
// fill and Puts the result, while every concurrent caller for the same key
// blocks on that flight and receives a deep copy — singleflight-style
// coalescing that closes the duplicate-work race where two runs miss on the
// same key and both pay the DL session. filled reports whether this caller
// ran fill itself (false for store hits and coalesced waiters).
func (s *Store) GetOrFill(k Key, fill func() ([]dataflow.Row, error)) (rows []dataflow.Row, filled bool, err error) {
	id := k.id()
	if rows, ok, err := s.Get(k); err != nil {
		return nil, false, err
	} else if ok {
		return rows, false, nil
	}
	s.flightMu.Lock()
	if f, ok := s.flights[id]; ok {
		f.waiters++
		s.flightMu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		s.flightMu.Lock()
		s.coalesced++
		s.flightMu.Unlock()
		out := make([]dataflow.Row, len(f.rows))
		for i := range f.rows {
			out[i] = f.rows[i].Clone()
		}
		return out, false, nil
	}
	if s.flights == nil {
		s.flights = make(map[string]*flight)
	}
	f := &flight{done: make(chan struct{})}
	s.flights[id] = f
	s.flightMu.Unlock()

	result, err := fill()
	if err == nil {
		// Best-effort durability: a failed Put (budget skip, disk fault)
		// still serves the flight's sharers from memory.
		s.Put(k, result)
	}
	f.rows, f.err = result, err
	close(f.done)
	s.flightMu.Lock()
	delete(s.flights, id)
	s.flightMu.Unlock()
	return result, err == nil, err
}

// Contains reports whether k is cached, without touching recency or the
// hit/miss counters (used for planning probes, not reads).
func (s *Store) Contains(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[k.id()]
	return ok
}

// CachedLayers reports how many of the given layer indices — taken in order —
// have Feature entries cached for the (model, weights, data) triple. The
// count stops at the first miss because the executor consumes layers
// bottom-up: a hole in the middle forces inference from the image anyway.
func (s *Store) CachedLayers(model, weightsSum, dataSum string, layers []int) int {
	n := 0
	for _, li := range layers {
		k := Key{Model: model, WeightsSum: weightsSum, DataSum: dataSum, LayerIndex: li, Kind: Feature}
		if !s.Contains(k) {
			break
		}
		n++
	}
	return n
}

// Snapshot returns current counters.
func (s *Store) Snapshot() Stats {
	s.flightMu.Lock()
	coalesced := s.coalesced
	s.flightMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:      len(s.entries),
		UsedBytes:    s.used,
		BudgetBytes:  s.budget,
		Hits:         s.hits,
		Misses:       s.misses,
		Puts:         s.puts,
		Evictions:    s.evictions,
		EvictedBytes: s.evictedBytes,
		DedupPuts:    s.dedupPuts,
		Coalesced:    coalesced,
	}
}

// Close persists the index (entry recency included) to disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistIndexLocked()
}

// Fsck cross-checks the in-memory index against the directory: every indexed
// entry must have a file of the recorded size, every entry file must be
// indexed, no atomic-write temp files may linger, the byte accounting must
// equal the sum of entry sizes, and the persisted index must decode. Chaos
// and crash-consistency tests call it after every fault schedule; it returns
// the first inconsistency found.
func (s *Store) Fsck() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for id, e := range s.entries {
		fi, err := os.Stat(s.entryPath(id))
		if err != nil {
			return fmt.Errorf("featurestore: fsck: indexed entry %s has no file: %w", id, err)
		}
		if fi.Size() != e.size {
			return fmt.Errorf("featurestore: fsck: entry %s is %d bytes on disk, index says %d", id, fi.Size(), e.size)
		}
		sum += e.size
	}
	if sum != s.used {
		return fmt.Errorf("featurestore: fsck: %d bytes charged, entries sum to %d", s.used, sum)
	}
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("featurestore: fsck: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			return fmt.Errorf("featurestore: fsck: stranded temp file %s", name)
		}
		if strings.HasSuffix(name, entrySuffix) {
			if _, ok := s.entries[strings.TrimSuffix(name, entrySuffix)]; !ok {
				return fmt.Errorf("featurestore: fsck: orphan entry file %s", name)
			}
		}
	}
	blob, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		if os.IsNotExist(err) && len(s.entries) == 0 {
			return nil // never persisted; an empty store is consistent
		}
		return fmt.Errorf("featurestore: fsck: reading index: %w", err)
	}
	if _, err := DecodeIndex(blob); err != nil {
		return fmt.Errorf("featurestore: fsck: %w", err)
	}
	return nil
}

// evictLocked frees space until incoming extra bytes fit under the budget.
func (s *Store) evictLocked(incoming int64) {
	if s.budget <= 0 {
		return
	}
	for s.used+incoming > s.budget && s.lru.Len() > 0 {
		victim := s.lru.Back().Value.(*storeEntry)
		s.dropLocked(victim)
		s.evictions++
		s.evictedBytes += victim.size
	}
}

// detachLocked removes an entry from the in-memory index without touching
// its file — used when the file has already been replaced in place.
func (s *Store) detachLocked(e *storeEntry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.id)
	s.used -= e.size
}

// dropLocked removes an entry from memory and disk.
func (s *Store) dropLocked(e *storeEntry) {
	s.detachLocked(e)
	os.Remove(s.entryPath(e.id))
}

func (s *Store) entryPath(id string) string {
	return filepath.Join(s.dir, id+entrySuffix)
}

func (s *Store) loadIndex() ([]IndexEntry, error) {
	blob, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeIndex(blob)
}

func (s *Store) persistIndexLocked() error {
	entries := make([]IndexEntry, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*storeEntry)
		entries = append(entries, IndexEntry{Key: e.key, Size: e.size, LastUsed: e.lastUsed})
	}
	return writeFileAtomic(FaultIndexWrite, filepath.Join(s.dir, indexName), EncodeIndex(entries))
}

// sweepTempFiles removes stale atomic-write temp files — a process killed
// between a temp write and its rename leaves one behind.
func (s *Store) sweepTempFiles() {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			os.Remove(filepath.Join(s.dir, de.Name()))
		}
	}
}

// wipeEntryFiles deletes every entry file; used when the index is corrupt
// and the files can no longer be attributed to keys.
func (s *Store) wipeEntryFiles() {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		if strings.HasSuffix(de.Name(), entrySuffix) {
			os.Remove(filepath.Join(s.dir, de.Name()))
		}
	}
}

// removeOrphans deletes entry files the index does not know about (e.g. a
// crash between an entry write and the index write).
func (s *Store) removeOrphans() {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		name := de.Name()
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		id := strings.TrimSuffix(name, entrySuffix)
		if _, ok := s.entries[id]; !ok {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// tmpPrefix names the atomic-write temp files so crash recovery can sweep
// the ones a kill stranded.
const tmpPrefix = ".tmp-"

// writeFileAtomic writes via a temp file + rename so readers (and crashes)
// never observe a partially written file. The failpoint sub-sites under the
// base site model the distinct failure points: temp-file creation
// ("<site>.create"), the data write ("<site>.write", a byte site that can
// tear), and the rename boundary ("<site>.rename" — a kill there strands a
// complete temp file without the final name ever appearing).
func writeFileAtomic(site, path string, blob []byte) error {
	if err := faultinject.Hit(site + ".create"); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+"*")
	if err != nil {
		return err
	}
	payload := blob
	if v := faultinject.HitBytes(site+".write", int64(len(blob))); v.Err != nil {
		// A reported torn write: persist the allowed prefix (what a dying
		// disk would leave in the temp file), then fail — the temp file is
		// removed, so the tear never reaches the final name.
		if v.Allowed > 0 {
			tmp.Write(blob[:v.Allowed])
		}
		tmp.Close()
		os.Remove(tmp.Name())
		return v.Err
	} else if v.SilentTear {
		// A silent torn write (no fsync before rename): the prefix lands
		// and the rename proceeds as if everything were durable.
		payload = blob[:v.Allowed]
	}
	_, werr := tmp.Write(payload)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := faultinject.Hit(site + ".rename"); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
