// Package tieredstore implements a two-tier embedding backing store: hot
// rows are pinned in DRAM while the full row set lives in an mmap'd cold
// file, read through the page cache.
//
// The motivation is the frequency skew of production embedding traffic
// (RecFlash, RecSSD): the hot minority of rows absorbs most accesses, so
// pinning them in a DRAM budget far smaller than the model lets tables grow
// well past machine memory while the long tail pays whatever the cold file's
// reads cost on the serving host — serving admission times a real batch
// rather than modelling that cost. Placement follows the store's own access
// counts: every row read is a lookup in a bounded LRU frequency window (a
// hotcache.Live the store owns), and a background promote/demote sweep with
// hysteresis pins the rows the window holds with the most hits.
//
// Rows are stored at the element type of the engine that owns the store —
// int16 or int32 fixed-point words, each row quantized once when the file
// is written — and read back through the generic RowTagged.
//
// Bit-identity by construction: the cold file holds the exact bits of every
// stream's rows, and a promotion copies those bits into the DRAM hot tier,
// so a gather reads identical values whichever tier serves the row —
// placement can change under a running batch without perturbing a single
// prediction.
package tieredstore

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"microrec/internal/hotcache"
	"microrec/internal/kernels"
)

// The placement hysteresis SweepNow applies.
const (
	// promoteMinHits is the per-entry hit count a resident row needs before
	// the sweep considers it hot.
	promoteMinHits = 2
	// demoteAfter is how many consecutive sweeps a pinned row may go unseen
	// in the harvest before it is demoted (the hysteresis band).
	demoteAfter = 3
)

// DefaultSweepEvery is the background sweep period Config.withDefaults
// applies.
const DefaultSweepEvery = 200 * time.Millisecond

// Config describes one tiered store.
type Config struct {
	// Path is the cold-tier backing file. Empty means a temp file. The store
	// owns the file either way — it is created (truncated) at Open and
	// removed at Close — so the path must be unique per store.
	Path string
	// HotBytes is the DRAM hot-tier byte budget. When 0 it defaults to a
	// quarter of the tierable bytes — i.e. the model is 4x larger than the
	// hot tier out of the box. Explicit all-cold operation is HotBytes < 0
	// (normalised to a zero budget).
	HotBytes int64
	// SweepEvery is the background promote/demote period. 0 means
	// DefaultSweepEvery; negative disables the background loop entirely
	// (tests drive placement via SweepNow/SetPlacement).
	SweepEvery time.Duration
	// WindowBytes is the byte capacity of the frequency window every row
	// read is recorded in, charged the bytes a row occupies. 0 means the hot
	// budget, floored at 1 MiB so an all-cold budget still leaves a usable
	// window.
	WindowBytes int64
}

// Validate rejects nonsense configurations.
func (c Config) Validate() error {
	if c.WindowBytes < 0 {
		return fmt.Errorf("tieredstore: negative window capacity %d", c.WindowBytes)
	}
	return nil
}

func (c Config) withDefaults(totalBytes int64) Config {
	if c.HotBytes == 0 {
		c.HotBytes = totalBytes / 4
	}
	if c.HotBytes < 0 {
		c.HotBytes = 0
	}
	if c.SweepEvery == 0 {
		c.SweepEvery = DefaultSweepEvery
	}
	if c.WindowBytes == 0 {
		c.WindowBytes = max(c.HotBytes, 1<<20)
	}
	return c
}

// StreamSpec describes one access stream to back: Rows rows of Dim
// elements. IDs must be dense 0..n-1 in slice order — they are the gather
// plan's cache/access-stream IDs.
type StreamSpec struct {
	ID   int
	Rows int64
	Dim  int
}

// Elem is a stream's element type: the engine's fixed-point word.
type Elem interface {
	~int16 | ~int32
}

// hotEntry is one pinned row in the sweep's master state.
type hotEntry struct {
	vec  []byte
	idle int // consecutive sweeps without a harvest sighting
}

// hotMap is the published (copy-on-write) placement of one stream: readers
// load it wait-free via Stream.hot, the sweep replaces it wholesale. A
// superseded map stays valid for any gather still holding it, which is what
// makes mid-batch demotion safe.
type hotMap struct {
	rows map[int64][]byte
}

// Stream is one access stream's view of the store: the gather datapath
// resolves rows through it instead of the original DRAM slice.
type Stream struct {
	id       int
	dim      int64 // elements a row
	rows     int64
	vecBytes int64
	cold     []byte // this stream's slice of the mmap'd cold file
	hot      atomic.Pointer[hotMap]
	window   *hotcache.Live // the store's frequency window

	hotReads  atomic.Int64
	coldReads atomic.Int64
}

// RowTagged returns row `row` of the stream as elements of T, which must be
// the element type the store was opened for — the pinned DRAM copy when the
// row is hot, otherwise a slice of the mmap'd cold file; both hold identical
// bits — and whether it came from the cold file, for callers that attribute
// cold-tier faults to the batch that suffered them (the flight recorder's
// per-span cold_faults count). The read is recorded in the store's frequency
// window first, so the window sees reads in the order callers make them.
// Allocation-free; the tier lookup is wait-free, the window's one shard
// lock is not.
//
//microrec:noalloc
func RowTagged[T Elem](st *Stream, row int64) ([]T, bool) {
	b, cold := st.rowTagged(row)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), st.dim), cold
}

//microrec:noalloc
func (st *Stream) rowTagged(row int64) ([]byte, bool) {
	st.window.Lookup(st.id, row, int(st.vecBytes))
	if m := st.hot.Load(); m != nil {
		if v, ok := m.rows[row]; ok {
			st.hotReads.Add(1)
			return v, false
		}
	}
	st.coldReads.Add(1)
	return st.coldRow(row), true
}

// coldRow is the cold file's copy of a row.
func (st *Stream) coldRow(row int64) []byte {
	return st.cold[row*st.vecBytes : (row+1)*st.vecBytes]
}

// IsHot reports whether the row is currently pinned (placement may change at
// the next sweep).
func (st *Stream) IsHot(row int64) bool {
	m := st.hot.Load()
	if m == nil {
		return false
	}
	_, ok := m.rows[row]
	return ok
}

// PrefetchRow issues a cache hint for the copy of the row the next RowTagged
// call will return — the pinned DRAM vector when hot, the mmap'd cold file
// otherwise — without touching the read counters or the frequency window.
// The gather hints every row of its window of fetches before it reads any of
// them, so the fetches overlap each other instead of queueing behind the
// reads. Unlike Store.Prefetch (a page-fault absorber that dereferences the
// page), this is hint-only: out-of-range rows are ignored and no fault is
// forced.
//
//microrec:noalloc
func (st *Stream) PrefetchRow(row int64) {
	if row < 0 || row >= st.rows {
		return
	}
	if m := st.hot.Load(); m != nil {
		if v, ok := m.rows[row]; ok {
			kernels.PrefetchRow(v)
			return
		}
	}
	kernels.PrefetchRow(st.coldRow(row))
}

// pin copies a row out of the cold file into DRAM. The copy's backing words
// are 8-byte aligned, so it reads as any element type.
func (st *Stream) pin(row int64) []byte {
	words := make([]uint64, (st.vecBytes+7)/8)
	vec := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), st.vecBytes)
	copy(vec, st.coldRow(row))
	return vec
}

// Store is the two-tier backing store for a set of access streams.
type Store struct {
	cfg        Config
	path       string
	f          *os.File
	mapped     []byte
	streams    []*Stream
	totalBytes int64

	// window records every row read; the sweep harvests it.
	window *hotcache.Live

	mu       sync.Mutex
	master   []map[int64]*hotEntry // per stream, sweep-owned
	hotBytes int64
	closed   bool

	promotions atomic.Int64
	demotions  atomic.Int64
	sweeps     atomic.Int64
	prefetches atomic.Int64
	// prefetchSink keeps prefetch loads observable so they cannot be elided.
	prefetchSink atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// Open creates the cold-tier file sized for every stream's rows at
// elemBytes bytes an element, has fill write them into it, maps it
// read-only, and starts the background placement sweep (unless
// cfg.SweepEvery < 0). fill gets the file and each stream's byte offset in
// it: stream i's rows go row-major from offsets[i] on, in host byte order
// (the file is process-private scratch, written and mapped by the same
// process), through any number of concurrent WriteAt calls. The caller must
// Close the store to stop the sweep, unmap, and remove the file.
func Open(cfg Config, elemBytes int, specs []StreamSpec, fill func(f io.WriterAt, offsets []int64) error) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("tieredstore: no streams")
	}
	if elemBytes != 2 && elemBytes != 4 {
		return nil, fmt.Errorf("tieredstore: %d-byte elements", elemBytes)
	}
	var total int64
	offsets := make([]int64, len(specs))
	for i, sp := range specs {
		if sp.ID != i {
			return nil, fmt.Errorf("tieredstore: stream %d has ID %d, want dense IDs", i, sp.ID)
		}
		if sp.Dim <= 0 || sp.Rows <= 0 {
			return nil, fmt.Errorf("tieredstore: stream %d: %d rows of dim %d", i, sp.Rows, sp.Dim)
		}
		offsets[i] = total
		total += sp.Rows * int64(sp.Dim) * int64(elemBytes)
	}
	cfg = cfg.withDefaults(total)
	window, err := hotcache.NewLive(cfg.WindowBytes, 0)
	if err != nil {
		return nil, err
	}

	var f *os.File
	if cfg.Path == "" {
		f, err = os.CreateTemp("", "microrec-coldtier-*.bin")
	} else {
		f, err = os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("tieredstore: cold file: %w", err)
	}
	s := &Store{cfg: cfg, path: f.Name(), f: f, totalBytes: total, window: window}
	fail := func(what string, err error) (*Store, error) {
		f.Close()
		os.Remove(s.path)
		return nil, fmt.Errorf("tieredstore: %s cold file: %w", what, err)
	}
	if err := f.Truncate(total); err != nil {
		return fail("size", err)
	}
	if err := fill(f, offsets); err != nil {
		return fail("write", err)
	}
	if s.mapped, err = mapFile(f, int(total)); err != nil {
		return fail("map", err)
	}
	s.streams = make([]*Stream, len(specs))
	s.master = make([]map[int64]*hotEntry, len(specs))
	for i, sp := range specs {
		vecBytes := int64(sp.Dim) * int64(elemBytes)
		s.streams[i] = &Stream{
			id:       i,
			dim:      int64(sp.Dim),
			rows:     sp.Rows,
			vecBytes: vecBytes,
			cold:     s.mapped[offsets[i] : offsets[i]+sp.Rows*vecBytes],
			window:   s.window,
		}
	}
	if cfg.SweepEvery > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.loop()
	}
	return s, nil
}

// Stream returns the backing stream for access-stream id.
func (s *Store) Stream(id int) *Stream { return s.streams[id] }

// Streams returns the stream count.
func (s *Store) Streams() int { return len(s.streams) }

// Window returns the store's frequency window: every row read through
// RowTagged is a lookup in it, and the placement sweep harvests its
// residency and per-entry hit counts.
func (s *Store) Window() *hotcache.Live { return s.window }

func (s *Store) loop() {
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			close(s.done)
			return
		case <-t.C:
			s.SweepNow()
		}
	}
}

type streamRow struct {
	id  int
	row int64
}

// SweepNow runs one synchronous promote/demote pass: harvest row frequencies
// from the frequency window, score rows, and repin the hot tier within the
// byte budget.
//
// Policy: a row qualifies when it is resident in the window with at
// least promoteMinHits per-entry hits (LRU residency is the recency filter,
// accumulated hits the frequency signal). Qualifying rows rank by hits;
// already-pinned rows that fell out of the harvest keep their pin at the
// lowest priority for up to demoteAfter sweeps (hysteresis), so a row
// oscillating around the threshold is not thrashed between tiers, and under
// budget pressure idle rows are evicted before any active one.
func (s *Store) SweepNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.sweeps.Add(1)

	cand := make(map[streamRow]int64)
	s.window.ForEachEntry(func(id int, row int64, bytes int, hits int64) {
		cand[streamRow{id, row}] = hits
	})

	type scored struct {
		streamRow
		score int64
		ent   *hotEntry // nil for a prospective promotion
	}
	var list []scored
	pinned := make(map[streamRow]bool)
	for id, m := range s.master {
		for row, ent := range m {
			k := streamRow{id, row}
			pinned[k] = true
			if h, ok := cand[k]; ok && h >= promoteMinHits {
				ent.idle = 0
				list = append(list, scored{k, h, ent})
				continue
			}
			ent.idle++
			if ent.idle <= demoteAfter {
				// Hysteresis: keep the pin at the lowest priority, so an
				// oscillating row is not thrashed between tiers but budget
				// pressure evicts idle rows before active ones.
				list = append(list, scored{k, 0, ent})
			}
		}
	}
	for k, h := range cand {
		if h >= promoteMinHits && !pinned[k] {
			list = append(list, scored{k, h, nil})
		}
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].score != list[b].score {
			return list[a].score > list[b].score
		}
		if list[a].id != list[b].id {
			return list[a].id < list[b].id
		}
		return list[a].row < list[b].row
	})

	newMaster := make([]map[int64]*hotEntry, len(s.streams))
	var used, promoted int64
	for _, c := range list {
		st := s.streams[c.id]
		if used+st.vecBytes > s.cfg.HotBytes {
			continue // smaller rows of other streams may still fit
		}
		ent := c.ent
		if ent == nil {
			ent = &hotEntry{vec: st.pin(c.row)}
			promoted++
		}
		if newMaster[c.id] == nil {
			newMaster[c.id] = make(map[int64]*hotEntry)
		}
		newMaster[c.id][c.row] = ent
		used += st.vecBytes
	}
	// A demotion is any previously pinned row absent from the new placement,
	// whether it idled past the hysteresis band or lost the budget race.
	var demoted int64
	for k := range pinned {
		if newMaster[k.id] == nil || newMaster[k.id][k.row] == nil {
			demoted++
		}
	}
	s.publishLocked(newMaster, used)
	s.promotions.Add(promoted)
	s.demotions.Add(demoted)
}

// publishLocked swaps in a new master placement and publishes the per-stream
// read-only maps. Callers hold s.mu.
func (s *Store) publishLocked(newMaster []map[int64]*hotEntry, usedBytes int64) {
	for id, st := range s.streams {
		m := newMaster[id]
		if len(m) == 0 {
			st.hot.Store(nil)
			continue
		}
		pub := make(map[int64][]byte, len(m))
		for row, ent := range m {
			pub[row] = ent.vec
		}
		st.hot.Store(&hotMap{rows: pub})
	}
	s.master = newMaster
	s.hotBytes = usedBytes
}

// SetPlacement force-pins exactly the given rows of stream id, replacing its
// current placement and bypassing the frequency policy and byte budget. Rows
// out of range are ignored; nil clears the stream's hot set. Only tests call
// it: the bit-identity and counter tests of core and the facade pin
// a chosen mix of hot and cold rows, which the frequency-driven sweep cannot
// produce on demand, so deadexport is allowed on it.
func (s *Store) SetPlacement(id int, rows []int64) { //microrec:allow deadexport
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || id < 0 || id >= len(s.streams) {
		return
	}
	st := s.streams[id]
	old := s.master[id]
	var m map[int64]*hotEntry
	for _, row := range rows {
		if row < 0 || row >= st.rows {
			continue
		}
		if m == nil {
			m = make(map[int64]*hotEntry)
		}
		if e, ok := old[row]; ok {
			m[row] = e
			continue
		}
		m[row] = &hotEntry{vec: st.pin(row)}
	}
	next := make([]map[int64]*hotEntry, len(s.streams))
	copy(next, s.master)
	next[id] = m
	var used int64
	for sid, sm := range next {
		used += int64(len(sm)) * s.streams[sid].vecBytes
	}
	s.publishLocked(next, used)
}

// Prefetch touches the cold copy of one row so its page is faulted in before
// the synchronous gather needs it. Hot rows are skipped. Returns true when a
// cold touch happened.
//
//microrec:noalloc
func (s *Store) Prefetch(id int, row int64) bool {
	if id < 0 || id >= len(s.streams) {
		return false
	}
	st := s.streams[id]
	if row < 0 || row >= st.rows {
		return false
	}
	if st.IsHot(row) {
		return false
	}
	// Touch one byte per page the row spans, not just the first: a row
	// crossing a page boundary would otherwise still fault synchronously in
	// the gather for its tail pages.
	const pageBytes = 4096
	b := st.coldRow(row)
	var acc int64
	for i := 0; i < len(b); i += pageBytes {
		acc += int64(b[i])
	}
	acc += int64(b[len(b)-1])
	s.prefetchSink.Add(acc)
	s.prefetches.Add(1)
	return true
}

// WindowStats is a snapshot of the store's frequency window: its capacity and
// occupancy, and the lifetime hits and misses of the reads recorded in it.
type WindowStats struct {
	CapacityBytes int64 `json:"capacity_bytes"`
	UsedBytes     int64 `json:"used_bytes"`
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	// HitRate is Hits/(Hits+Misses), 0 when idle.
	HitRate float64 `json:"hit_rate"`
}

// Snapshot is a point-in-time view of the store for /stats and reports.
type Snapshot struct {
	Path           string `json:"path"`
	HotBudgetBytes int64  `json:"hot_budget_bytes"`
	TotalBytes     int64  `json:"total_bytes"`
	HotRows        int64  `json:"hot_rows"`
	ColdRows       int64  `json:"cold_rows"`
	HotBytes       int64  `json:"hot_bytes"`
	HotReads       int64  `json:"hot_reads"`
	ColdReads      int64  `json:"cold_reads"`
	// HotReadRate is HotReads/(HotReads+ColdReads), 0 when idle.
	HotReadRate float64 `json:"hot_read_rate"`
	Promotions  int64   `json:"promotions"`
	Demotions   int64   `json:"demotions"`
	Sweeps      int64   `json:"sweeps"`
	Prefetches  int64   `json:"prefetches"`
	// Window is the frequency window. /stats reports it as its own
	// "hotcache" section, not inside "tiers".
	Window WindowStats `json:"-"`
}

// Snapshot summarises the store.
func (s *Store) Snapshot() Snapshot {
	snap := Snapshot{
		Path:           s.path,
		HotBudgetBytes: s.cfg.HotBytes,
		TotalBytes:     s.totalBytes,
		Promotions:     s.promotions.Load(),
		Demotions:      s.demotions.Load(),
		Sweeps:         s.sweeps.Load(),
		Prefetches:     s.prefetches.Load(),
	}
	// One acquisition covers the row and byte counts, so a sweep publishing
	// a new placement cannot pair one placement's hot rows with another's
	// hot bytes (statsnapshot's bug class — a snapshot no real instant ever
	// exhibited).
	s.mu.Lock()
	for id, st := range s.streams {
		snap.HotRows += int64(len(s.master[id]))
		snap.ColdRows += st.rows - int64(len(s.master[id]))
	}
	snap.HotBytes = s.hotBytes
	s.mu.Unlock()
	var hot, cold int64
	for _, st := range s.streams {
		hot += st.hotReads.Load()
		cold += st.coldReads.Load()
	}
	snap.HotReads, snap.ColdReads = hot, cold
	if hot+cold > 0 {
		snap.HotReadRate = float64(hot) / float64(hot+cold)
	}
	w := s.window.Stats()
	snap.Window = WindowStats{
		CapacityBytes: s.window.CapacityBytes(),
		UsedBytes:     w.UsedBytes,
		Entries:       w.Entries,
		Hits:          w.Hits,
		Misses:        w.Misses,
		HitRate:       w.HitRate(),
	}
	return snap
}

// Close stops the sweep loop, unmaps the cold file, and removes it. Safe to
// call twice. Callers must have stopped every reader first: a Row on a
// closed store reads unmapped memory.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.stop != nil {
		close(s.stop)
		<-s.done
	}
	var first error
	if err := unmapFile(s.mapped); err != nil {
		first = err
	}
	s.mapped = nil
	if err := s.f.Close(); err != nil && first == nil {
		first = err
	}
	if err := os.Remove(s.path); err != nil && first == nil {
		first = err
	}
	return first
}
