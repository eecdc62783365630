package tieredstore

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"microrec/internal/hotcache"
)

// testStream is a stream's spec and the int32 rows it holds (4-byte
// elements, so a dim-4 row is 16 bytes).
type testStream struct {
	spec StreamSpec
	data []int32
}

// testSpecs builds two deterministic streams: stream 0 with 64 rows of dim
// 4, stream 1 with 32 rows of dim 8.
func testSpecs(t *testing.T) []testStream {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	mk := func(id, rows, dim int) testStream {
		data := make([]int32, rows*dim)
		for i := range data {
			data[i] = rng.Int31() - 1<<30
		}
		return testStream{StreamSpec{ID: id, Rows: int64(rows), Dim: dim}, data}
	}
	return []testStream{mk(0, 64, 4), mk(1, 32, 8)}
}

// writeStreams is an Open fill that writes each stream's rows at its offset,
// one row a WriteAt, out of order, as concurrent converters would.
func writeStreams(streams []testStream) func(io.WriterAt, []int64) error {
	return func(f io.WriterAt, offsets []int64) error {
		for i := len(streams) - 1; i >= 0; i-- {
			st := streams[i]
			rowBytes := st.spec.Dim * 4
			b := unsafe.Slice((*byte)(unsafe.Pointer(&st.data[0])), len(st.data)*4)
			for r := int(st.spec.Rows) - 1; r >= 0; r-- {
				if _, err := f.WriteAt(b[r*rowBytes:(r+1)*rowBytes], offsets[i]+int64(r*rowBytes)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func openStreams(t *testing.T, cfg Config, streams []testStream) *Store {
	t.Helper()
	specs := make([]StreamSpec, len(streams))
	for i, st := range streams {
		specs[i] = st.spec
	}
	s, err := Open(cfg, 4, specs, writeStreams(streams))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func openTest(t *testing.T, cfg Config) (*Store, []testStream) {
	t.Helper()
	streams := testSpecs(t)
	cfg.SweepEvery = -1 // tests drive sweeps explicitly
	return openStreams(t, cfg, streams), streams
}

// read reads one row the way the gather reads a run — Resolve, then Record —
// and returns its copy as elements of T and whether it came from the cold
// file.
func read[T int16 | int32](st *Stream, row int64) ([]T, bool) {
	var src [1]unsafe.Pointer
	rows := []int64{row}
	cold := st.Resolve(rows, src[:])
	st.Record(rows, cold)
	var zero T
	return unsafe.Slice((*T)(src[0]), st.vecBytes/int64(unsafe.Sizeof(zero))), cold == 1
}

// isHot reports whether the row is pinned in the published placement.
func isHot(st *Stream, row int64) bool {
	m := st.hot.Load()
	if m == nil {
		return false
	}
	_, ok := m.rows[row]
	return ok
}

// specsOf lists the streams' specs.
func specsOf(streams []testStream) []StreamSpec {
	specs := make([]StreamSpec, len(streams))
	for i, st := range streams {
		specs[i] = st.spec
	}
	return specs
}

// TestColdReadsBitIdentical checks every row read back from the mmap'd cold
// tier is bit-identical to the source payload, before and after promotions.
func TestColdReadsBitIdentical(t *testing.T) {
	s, specs := openTest(t, Config{})
	for id, sp := range specs {
		st := s.Stream(id)
		if st.rows != sp.spec.Rows {
			t.Fatalf("stream %d rows %d", id, st.rows)
		}
		for row := int64(0); row < st.rows; row++ {
			got, _ := read[int32](st, row)
			for k := 0; k < sp.spec.Dim; k++ {
				if want := sp.data[int(row)*sp.spec.Dim+k]; got[k] != want {
					t.Fatalf("stream %d row %d[%d]: %v != %v", id, row, k, got[k], want)
				}
			}
		}
	}
	// Pin half of stream 0 and re-check both tiers.
	s.SetPlacement(0, []int64{0, 1, 2, 3, 30, 31, 62, 63})
	st := s.Stream(0)
	if !isHot(st, 31) || isHot(st, 29) {
		t.Fatal("placement not applied")
	}
	for row := int64(0); row < st.rows; row++ {
		got, _ := read[int32](st, row)
		for k := 0; k < specs[0].spec.Dim; k++ {
			if want := specs[0].data[int(row)*specs[0].spec.Dim+k]; got[k] != want {
				t.Fatalf("post-placement row %d[%d]: %v != %v", row, k, got[k], want)
			}
		}
	}
}

// TestSweepPromotesByFrequency reads rows through the store and checks the
// sweep pins the frequent ones the window recorded, within the byte budget,
// ranked by hits.
func TestSweepPromotesByFrequency(t *testing.T) {
	// Budget for exactly 3 rows of stream 0 (dim 4 => 16 bytes each).
	s, _ := openTest(t, Config{HotBytes: 48})
	// Rows 5, 6, 7 of stream 0 get 10/5/3 hits; row 8 only 1 (below the
	// threshold); row 9 of stream 1 gets 20 hits but each of its rows costs
	// 32 bytes.
	read := func(id int, row int64, n int) {
		for i := 0; i < n; i++ {
			read[int32](s.Stream(id), row)
		}
	}
	read(0, 5, 11) // 1 miss + 10 hits
	read(0, 6, 6)
	read(0, 7, 4)
	read(0, 8, 2) // 1 hit: below promoteMinHits
	read(1, 9, 21)

	s.SweepNow()
	st0, st1 := s.Stream(0), s.Stream(1)
	// Ranking: (1,9) 20 hits = 32 bytes, then (0,5) 10 hits = 16 bytes;
	// 32+16 fills the 48-byte budget, so (0,6)/(0,7) are out.
	if !isHot(st1, 9) {
		t.Error("highest-frequency row not pinned")
	}
	if !isHot(st0, 5) {
		t.Error("second-ranked row not pinned")
	}
	if isHot(st0, 6) || isHot(st0, 7) || isHot(st0, 8) {
		t.Error("budget-overflowing or sub-threshold rows pinned")
	}
	snap := s.Snapshot()
	if snap.HotBytes > 48 {
		t.Errorf("hot bytes %d exceed budget", snap.HotBytes)
	}
	if snap.Promotions != 2 || snap.HotRows != 2 {
		t.Errorf("promotions %d hot rows %d, want 2/2", snap.Promotions, snap.HotRows)
	}
	// The window charged each row the bytes it occupies.
	if w := snap.Window; w.Entries != 5 || w.UsedBytes != 4*16+32 || w.Hits != 10+5+3+1+20 {
		t.Errorf("window %+v, want 5 entries, 96 bytes, 39 hits", w)
	}
}

// TestSweepPromoteThreshold pins the promotion threshold's edge with a
// budget that fits every row: a row one window hit short of promoteMinHits
// stays cold, and one with exactly promoteMinHits hits is pinned.
func TestSweepPromoteThreshold(t *testing.T) {
	s, _ := openTest(t, Config{HotBytes: 1 << 16})
	st := s.Stream(0)
	read := func(row int64, hits int) {
		for i := 0; i <= hits; i++ { // the first read is the window's miss
			read[int32](st, row)
		}
	}
	read(20, promoteMinHits-1)
	read(21, promoteMinHits)
	s.SweepNow()
	if isHot(st, 20) {
		t.Errorf("row with %d hits pinned, threshold is %d", promoteMinHits-1, promoteMinHits)
	}
	if !isHot(st, 21) {
		t.Errorf("row with %d hits left cold, threshold is %d", promoteMinHits, promoteMinHits)
	}
	if p := s.Snapshot().Promotions; p != 1 {
		t.Errorf("promotions %d, want 1", p)
	}
}

// TestSweepHysteresis checks a pinned row survives demoteAfter sweeps
// without traffic before demotion.
func TestSweepHysteresis(t *testing.T) {
	// A window of one 16-byte row: a row falls out of it as soon as another
	// row is read.
	s, _ := openTest(t, Config{HotBytes: 1 << 16, WindowBytes: 16})
	st := s.Stream(0)
	for i := 0; i < 5; i++ {
		read[int32](st, 12)
	}
	s.SweepNow()
	if !isHot(st, 12) {
		t.Fatal("frequent row not promoted")
	}
	// Read every other row of stream 0 once: row 12 leaves the window, and
	// none of its successors has a hit to be promoted with.
	for row := int64(0); row < st.rows; row++ {
		if row != 12 {
			read[int32](st, row)
		}
	}
	s.window.ForEachEntry(func(id int, row int64, bytes int, hits int64) {
		if id == 0 && row == 12 {
			t.Fatal("test premise broken: row 12 still in the window")
		}
	})

	for i := 1; i <= demoteAfter; i++ {
		s.SweepNow()
		if !isHot(st, 12) {
			t.Fatalf("row demoted after %d idle sweeps, hysteresis is %d", i, demoteAfter)
		}
	}
	s.SweepNow() // one idle sweep more: past the band
	if isHot(st, 12) {
		t.Fatal("row still pinned past the hysteresis band")
	}
	if d := s.Snapshot().Demotions; d < 1 {
		t.Errorf("demotions %d, want >= 1", d)
	}
}

// TestCloseRemovesFile pins the cleanup contract for both temp and explicit
// paths, and that Close is idempotent.
func TestCloseRemovesFile(t *testing.T) {
	streams := testSpecs(t)
	specs := specsOf(streams)
	s, err := Open(Config{SweepEvery: -1}, 4, specs, writeStreams(streams))
	if err != nil {
		t.Fatal(err)
	}
	tmp := s.path
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("temp cold file missing while open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp cold file survives Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	explicit := t.TempDir() + "/cold.bin"
	s2, err := Open(Config{Path: explicit, SweepEvery: -1}, 4, specs, writeStreams(streams))
	if err != nil {
		t.Fatal(err)
	}
	if s2.path != explicit {
		t.Fatalf("path %q", s2.path)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(explicit); !os.IsNotExist(err) {
		t.Fatalf("explicit cold file survives Close: %v", err)
	}
}

// TestReadCounters checks the read counters split by tier.
func TestReadCounters(t *testing.T) {
	s, _ := openTest(t, Config{})
	s.SetPlacement(0, []int64{3})
	st := s.Stream(0)
	read[int32](st, 3)
	read[int32](st, 4)
	snap := s.Snapshot()
	if snap.HotReads != 1 || snap.ColdReads != 1 {
		t.Errorf("reads hot=%d cold=%d, want 1/1", snap.HotReads, snap.ColdReads)
	}
	if snap.HotReadRate != 0.5 {
		t.Errorf("hot read rate %v", snap.HotReadRate)
	}
}

// TestRunResolvesAndRecords reads a run of rows in one Resolve and one
// Record, hot and cold rows mixed, repeats and out of order: each address
// holds its row's bits from the tier the placement names, the cold count is
// the run's cold rows, the read counters move by the run, and the window
// equals one LRU that saw the run's rows one at a time, in order.
func TestRunResolvesAndRecords(t *testing.T) {
	const windowBytes = 4 * 16 // four dim-4 rows: the run evicts
	s, specs := openTest(t, Config{HotBytes: 1 << 16, WindowBytes: windowBytes})
	s.SetPlacement(0, []int64{1, 5, 9})
	st := s.Stream(0)
	ref, err := hotcache.New(windowBytes)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int64{9, 0, 5, 5, 63, 2, 1, 9, 7, 2, 40}
	for round := 0; round < 2; round++ {
		srcs := make([]unsafe.Pointer, len(rows))
		cold := st.Resolve(rows, srcs)
		st.Record(rows, cold)
		var wantCold int
		for i, row := range rows {
			hot := row == 1 || row == 5 || row == 9
			if !hot {
				wantCold++
			}
			inCold := uintptr(srcs[i]) >= uintptr(unsafe.Pointer(&st.cold[0])) && uintptr(srcs[i]) < uintptr(unsafe.Pointer(&st.cold[0]))+uintptr(len(st.cold))
			if inCold == hot {
				t.Errorf("row %d (hot %v) resolved into the cold file: %v", row, hot, inCold)
			}
			got := unsafe.Slice((*int32)(srcs[i]), 4)
			if want := specs[0].data[row*4 : row*4+4]; !slices.Equal(got, want) {
				t.Errorf("row %d reads %v, want %v", row, got, want)
			}
			ref.Lookup(0, row, 16)
		}
		if cold != wantCold {
			t.Errorf("Resolve counts %d cold rows, want %d", cold, wantCold)
		}
		snap := s.Snapshot()
		if n := int64((round + 1) * len(rows)); snap.HotReads+snap.ColdReads != n || snap.ColdReads != int64((round+1)*wantCold) {
			t.Errorf("round %d: reads hot=%d cold=%d, want %d with %d cold", round, snap.HotReads, snap.ColdReads, n, (round+1)*wantCold)
		}
		if got, want := s.Window(), ref.Stats(); got != want {
			t.Errorf("round %d: window %+v, one row at a time %+v", round, got, want)
		}
	}
}

// TestConcurrentRunsConserved reads runs through both streams from several
// goroutines while placements change, and checks the window and the read
// counters lose no read and count none twice: hits + misses = hot + cold
// reads = rows read, and the cold reads are the sum of Resolve's counts.
// Meanwhile a snapshot reader checks that every run enters the window whole,
// under one acquisition of its lock: a window that ever holds part of a run
// shows hits + misses that are not a multiple of the run length.
func TestConcurrentRunsConserved(t *testing.T) {
	s, _ := openTest(t, Config{HotBytes: 1 << 16, WindowBytes: 1 << 10}) // half the rows: the window evicts
	const readers, runs, runLen = 4, 200, 24
	var (
		wg, snap sync.WaitGroup
		cold     atomic.Int64
		done     atomic.Bool
		torn     atomic.Int64
	)
	snap.Add(1)
	go func() {
		defer snap.Done()
		for !done.Load() {
			if w := s.Window(); (w.Hits+w.Misses)%runLen != 0 || w.HitRate() < 0 || w.HitRate() > 1 {
				torn.Add(1)
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			rows := make([]int64, runLen)
			srcs := make([]unsafe.Pointer, len(rows))
			for i := 0; i < runs; i++ {
				st := s.Stream(i % 2)
				for k := range rows {
					rows[k] = rng.Int63n(st.rows)
				}
				c := st.Resolve(rows, srcs)
				st.Record(rows, c)
				cold.Add(int64(c))
				if g == 0 && i%20 == 0 {
					s.SweepNow()
				}
			}
		}(g)
	}
	wg.Wait()
	done.Store(true)
	snap.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d window snapshots held part of a run", n)
	}
	st, w := s.Snapshot(), s.Window()
	total := int64(readers * runs * runLen)
	if w.Hits+w.Misses != total || st.HotReads+st.ColdReads != total {
		t.Fatalf("%d rows read: window recorded %d, tiers read %d hot + %d cold", total, w.Hits+w.Misses, st.HotReads, st.ColdReads)
	}
	if st.ColdReads != cold.Load() {
		t.Fatalf("Resolve counted %d cold rows, the tier %d", cold.Load(), st.ColdReads)
	}
	if st.HotReads == 0 || st.Promotions == 0 {
		t.Fatalf("no row read hot: %+v", st)
	}
}

// TestHotBytesDefault checks the 4x default — an unset budget becomes a
// quarter of the tierable bytes — and the frequency window's default.
func TestHotBytesDefault(t *testing.T) {
	s, specs := openTest(t, Config{})
	var total int64
	for _, sp := range specs {
		total += int64(len(sp.data)) * 4
	}
	if got := s.cfg.HotBytes; got != total/4 {
		t.Fatalf("default hot budget %d, want %d", got, total/4)
	}
	if s.totalBytes != total {
		t.Fatalf("total bytes %d, want %d", s.totalBytes, total)
	}
	// Explicit all-cold: negative budget normalises to zero.
	s2 := openStreams(t, Config{HotBytes: -1, SweepEvery: -1}, testSpecs(t))
	if s2.cfg.HotBytes != 0 {
		t.Fatalf("all-cold budget %d", s2.cfg.HotBytes)
	}
	// The window defaults to the hot budget, floored at 1 MiB; an explicit
	// capacity is kept.
	for _, tc := range []struct {
		name string
		cfg  Config
		want int64
	}{
		{"default", Config{}, 1 << 20},
		{"4 MiB budget", Config{HotBytes: 4 << 20}, 4 << 20},
		{"explicit", Config{WindowBytes: 4096}, 4096},
		// One LRU indexes at most hotcache.MaxCapacity: a budget or an
		// explicit window past it is clamped, not refused.
		{"3 GiB budget", Config{HotBytes: 3 << 30}, hotcache.MaxCapacity},
		{"explicit 1 TiB", Config{WindowBytes: 1 << 40}, hotcache.MaxCapacity},
		{"explicit at the cap", Config{WindowBytes: hotcache.MaxCapacity}, hotcache.MaxCapacity},
	} {
		tc.cfg.SweepEvery = -1
		s := openStreams(t, tc.cfg, testSpecs(t))
		if got := s.Snapshot().Window.CapacityBytes; got != tc.want {
			t.Errorf("%s: window %d bytes, want %d", tc.name, got, tc.want)
		}
	}
}

// TestOpenValidation covers the spec/config error paths, and a fill that
// fails: Open reports it and leaves no file behind.
func TestOpenValidation(t *testing.T) {
	streams := testSpecs(t)
	specs, fill := specsOf(streams), writeStreams(streams)
	if _, err := Open(Config{SweepEvery: -1}, 4, nil, fill); err == nil {
		t.Error("no streams accepted")
	}
	if _, err := Open(Config{SweepEvery: -1}, 4, []StreamSpec{{ID: 1, Rows: 1, Dim: 1}}, fill); err == nil {
		t.Error("non-dense IDs accepted")
	}
	if _, err := Open(Config{SweepEvery: -1}, 4, []StreamSpec{{ID: 0, Rows: 0, Dim: 2}}, fill); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := Open(Config{SweepEvery: -1}, 8, specs, fill); err == nil {
		t.Error("8-byte elements accepted")
	}
	if _, err := Open(Config{WindowBytes: -1, SweepEvery: -1}, 4, specs, fill); err == nil {
		t.Error("negative window capacity accepted")
	}
	path := t.TempDir() + "/cold.bin"
	boom := errors.New("boom")
	_, err := Open(Config{Path: path, SweepEvery: -1}, 4, specs, func(io.WriterAt, []int64) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("failing fill: error %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("cold file survives a failed Open: %v", err)
	}
}

// TestInt16Rows reads a 2-byte-element store back through both tiers.
func TestInt16Rows(t *testing.T) {
	data := make([]int16, 10*3)
	for i := range data {
		data[i] = int16(i*997 - 15000)
	}
	spec := StreamSpec{ID: 0, Rows: 10, Dim: 3}
	s, err := Open(Config{SweepEvery: -1}, 2, []StreamSpec{spec}, func(f io.WriterAt, offsets []int64) error {
		_, err := f.WriteAt(unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), len(data)*2), offsets[0])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.totalBytes != int64(len(data))*2 {
		t.Fatalf("total bytes %d", s.totalBytes)
	}
	s.SetPlacement(0, []int64{1, 7})
	for row := int64(0); row < 10; row++ {
		got, cold := read[int16](s.Stream(0), row)
		if cold == (row == 1 || row == 7) {
			t.Errorf("row %d: cold %v", row, cold)
		}
		for k, v := range got {
			if want := data[row*3+int64(k)]; v != want {
				t.Fatalf("row %d[%d] = %d, want %d", row, k, v, want)
			}
		}
	}
}

// TestEmptyRun checks an empty run is a no-op: Resolve counts no cold row
// and writes nothing, and Record moves neither the window nor the read
// counters.
func TestEmptyRun(t *testing.T) {
	s, _ := openTest(t, Config{})
	st := s.Stream(0)
	read[int32](st, 3)
	snap, window := s.Snapshot(), s.Window()
	if cold := st.Resolve(nil, nil); cold != 0 {
		t.Errorf("Resolve of an empty run counts %d cold rows", cold)
	}
	st.Record(nil, 0)
	st.Record([]int64{}, 0)
	if got := s.Snapshot(); got.HotReads != snap.HotReads || got.ColdReads != snap.ColdReads {
		t.Errorf("empty runs moved the read counters: %+v, before %+v", got, snap)
	}
	if got := s.Window(); got != window {
		t.Errorf("empty runs moved the window: %+v, before %+v", got, window)
	}
}

// TestWindowKeysStreamAndRow checks the store's one window keeps each
// stream's rows apart and charges each the bytes it occupies: row 7 of
// stream 0 read ten times is one entry with nine hits, and rows 0..9 of
// stream 1, read as one run, are ten more entries of twice the size, all
// misses — row 7 of stream 1 among them.
func TestWindowKeysStreamAndRow(t *testing.T) {
	s, _ := openTest(t, Config{})
	for i := 0; i < 10; i++ {
		read[int32](s.Stream(0), 7)
	}
	rows := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	st := s.Stream(1)
	st.Record(rows, st.Resolve(rows, make([]unsafe.Pointer, len(rows))))
	w := s.Window()
	if w.Hits != 9 || w.Misses != 11 {
		t.Errorf("hits %d misses %d, want 9/11", w.Hits, w.Misses)
	}
	if w.Entries != 11 || w.UsedBytes != 16+10*32 {
		t.Errorf("%d entries of %d bytes, want 11 of %d", w.Entries, w.UsedBytes, 16+10*32)
	}
}

// TestWindowSnapshotCoherent checks that a window snapshot is one instant of
// the window, taken under its lock: each writer reads runs of two rows, its
// own resident row (a hit) and a fresh one (a miss), so at every instant the
// window has counted exactly one miss per writer more than hits — the
// pre-populating read of its resident row. A snapshot that paired one run's
// hit with an earlier miss count, or saw half a run, breaks the equality.
// The window holds every row the test reads, so none is evicted.
func TestWindowSnapshotCoherent(t *testing.T) {
	const writers, iters = 4, 3000
	rows := writers * (iters + 1)
	data := make([]int32, rows)
	for i := range data {
		data[i] = int32(i)
	}
	s := openStreams(t, Config{SweepEvery: -1, WindowBytes: int64(4 * rows)},
		[]testStream{{StreamSpec{ID: 0, Rows: int64(rows), Dim: 1}, data}})
	st := s.Stream(0)
	for w := 0; w < writers; w++ {
		read[int32](st, int64(w)) // each writer's resident row
	}

	var (
		writerWG, readerWG sync.WaitGroup
		done               atomic.Bool
		torn               atomic.Int64
	)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			run := make([]int64, 2)
			srcs := make([]unsafe.Pointer, 2)
			for i := 0; i < iters; i++ {
				run[0], run[1] = int64(w), int64(writers+w*iters+i)
				st.Record(run, st.Resolve(run, srcs))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !done.Load() {
				if w := s.Window(); w.Misses-w.Hits != writers {
					torn.Add(1)
				}
				if w := s.Snapshot().Window; w.Misses-w.Hits != writers || w.HitRate < 0 || w.HitRate > 1 {
					torn.Add(1)
				}
			}
		}()
	}
	writerWG.Wait()
	done.Store(true)
	readerWG.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d window snapshots with misses - hits != %d", n, writers)
	}
	if w := s.Window(); w.Hits != writers*iters || w.Entries != rows {
		t.Fatalf("window %+v, want %d hits over %d entries", w, writers*iters, rows)
	}
}

// TestWindowStaysWithinCapacity reads runs through both streams, whose rows
// differ in size, from several goroutines into a window that holds a few
// rows, and checks that no snapshot ever shows the window over its byte
// capacity and that every read was recorded.
func TestWindowStaysWithinCapacity(t *testing.T) {
	const capacity = 5 * 16 // two 32-byte rows and a 16-byte one, or five 16-byte ones
	s, _ := openTest(t, Config{WindowBytes: capacity})
	const readers, runs, runLen = 8, 300, 7
	var (
		wg, snap sync.WaitGroup
		done     atomic.Bool
		over     atomic.Int64
	)
	snap.Add(1)
	go func() {
		defer snap.Done()
		for !done.Load() {
			if w := s.Snapshot().Window; w.UsedBytes > w.CapacityBytes || w.UsedBytes < 0 {
				over.Add(1)
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows := make([]int64, runLen)
			srcs := make([]unsafe.Pointer, runLen)
			for i := 0; i < runs; i++ {
				st := s.Stream((g + i) % 2)
				for k := range rows {
					rows[k] = int64((g*runs + i*runLen + k) % 11) // a few recurring rows: hits and evictions
				}
				st.Record(rows, st.Resolve(rows, srcs))
			}
		}(g)
	}
	wg.Wait()
	done.Store(true)
	snap.Wait()
	if n := over.Load(); n > 0 {
		t.Fatalf("%d snapshots with the window over its %d bytes", n, capacity)
	}
	w := s.Snapshot().Window
	if w.Hits+w.Misses != readers*runs*runLen {
		t.Fatalf("window recorded %d reads, want %d", w.Hits+w.Misses, readers*runs*runLen)
	}
	if w.Hits == 0 || w.UsedBytes > capacity {
		t.Fatalf("window %+v: want hits, within %d bytes", w, capacity)
	}
}

// TestResolvedCopyOutlivesDemotion checks the contract that lets placement
// change under a running gather: a pinned copy Resolve handed out still
// holds its row's bits after a new placement demotes the row and the
// collector runs, and the next Resolve of the row reads the cold file.
func TestResolvedCopyOutlivesDemotion(t *testing.T) {
	s, specs := openTest(t, Config{})
	st := s.Stream(0)
	s.SetPlacement(0, []int64{3})
	rows := []int64{3}
	srcs := make([]unsafe.Pointer, 1)
	if cold := st.Resolve(rows, srcs); cold != 0 {
		t.Fatal("pinned row resolved cold")
	}
	s.SetPlacement(0, nil)
	runtime.GC()
	runtime.GC()
	want := specs[0].data[3*4 : 4*4]
	if got := unsafe.Slice((*int32)(srcs[0]), 4); !slices.Equal(got, want) {
		t.Fatalf("demoted copy reads %v, want %v", got, want)
	}
	again := make([]unsafe.Pointer, 1)
	if cold := st.Resolve(rows, again); cold != 1 || again[0] != unsafe.Pointer(&st.cold[3*16]) {
		t.Fatalf("after demotion the row resolves to %p (cold %d), want its cold-file copy %p", again[0], cold, &st.cold[3*16])
	}
}

// TestSweepPromotesWithinARun checks that the reads of one run feed the
// sweep like the same reads one at a time: a row repeated within a single
// Record earns its window hits and is pinned, a row read once beside it is
// not, and the next Resolve of the pinned row reads the hot tier.
func TestSweepPromotesWithinARun(t *testing.T) {
	s, _ := openTest(t, Config{HotBytes: 1 << 16})
	st := s.Stream(0)
	run := make([]int64, 0, promoteMinHits+2)
	for i := 0; i <= promoteMinHits; i++ {
		run = append(run, 5) // a miss, then promoteMinHits hits
	}
	run = append(run, 9)
	st.Record(run, st.Resolve(run, make([]unsafe.Pointer, len(run))))
	s.SweepNow()
	if !isHot(st, 5) || isHot(st, 9) {
		t.Fatalf("after one run: row 5 hot %v, row 9 hot %v; want true, false", isHot(st, 5), isHot(st, 9))
	}
	if p := s.Snapshot().Promotions; p != 1 {
		t.Errorf("promotions %d, want 1", p)
	}
	if cold := st.Resolve([]int64{5}, make([]unsafe.Pointer, 1)); cold != 0 {
		t.Error("promoted row still resolves cold")
	}
}
