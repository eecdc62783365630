package tieredstore

import (
	"errors"
	"io"
	"math/rand"
	"os"
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
			got, _ := RowTagged[int32](st, row)
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
	if !st.IsHot(31) || st.IsHot(29) {
		t.Fatal("placement not applied")
	}
	for row := int64(0); row < st.rows; row++ {
		got, _ := RowTagged[int32](st, row)
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
			RowTagged[int32](s.Stream(id), row)
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
	if !st1.IsHot(9) {
		t.Error("highest-frequency row not pinned")
	}
	if !st0.IsHot(5) {
		t.Error("second-ranked row not pinned")
	}
	if st0.IsHot(6) || st0.IsHot(7) || st0.IsHot(8) {
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
			RowTagged[int32](st, row)
		}
	}
	read(20, promoteMinHits-1)
	read(21, promoteMinHits)
	s.SweepNow()
	if st.IsHot(20) {
		t.Errorf("row with %d hits pinned, threshold is %d", promoteMinHits-1, promoteMinHits)
	}
	if !st.IsHot(21) {
		t.Errorf("row with %d hits left cold, threshold is %d", promoteMinHits, promoteMinHits)
	}
	if p := s.Snapshot().Promotions; p != 1 {
		t.Errorf("promotions %d, want 1", p)
	}
}

// TestSweepHysteresis checks a pinned row survives demoteAfter sweeps
// without traffic before demotion.
func TestSweepHysteresis(t *testing.T) {
	// One 16-byte row per window shard: a row falls out of the window as
	// soon as another row of its shard is read.
	s, _ := openTest(t, Config{HotBytes: 1 << 16, WindowBytes: hotcache.DefaultLiveShards * 16})
	st := s.Stream(0)
	for i := 0; i < 5; i++ {
		RowTagged[int32](st, 12)
	}
	s.SweepNow()
	if !st.IsHot(12) {
		t.Fatal("frequent row not promoted")
	}
	// Read every other row of stream 0 once: row 12 leaves the window, and
	// none of its successors has a hit to be promoted with.
	for row := int64(0); row < st.rows; row++ {
		if row != 12 {
			RowTagged[int32](st, row)
		}
	}
	s.Window().ForEachEntry(func(id int, row int64, bytes int, hits int64) {
		if id == 0 && row == 12 {
			t.Fatal("test premise broken: row 12 still in the window")
		}
	})

	for i := 1; i <= demoteAfter; i++ {
		s.SweepNow()
		if !st.IsHot(12) {
			t.Fatalf("row demoted after %d idle sweeps, hysteresis is %d", i, demoteAfter)
		}
	}
	s.SweepNow() // one idle sweep more: past the band
	if st.IsHot(12) {
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

// TestPrefetchAndCounters checks Prefetch touches only cold rows and the
// read counters split by tier.
func TestPrefetchAndCounters(t *testing.T) {
	s, _ := openTest(t, Config{})
	s.SetPlacement(0, []int64{3})
	if s.Prefetch(0, 3) {
		t.Error("prefetch touched a hot row")
	}
	if !s.Prefetch(0, 4) {
		t.Error("prefetch skipped a cold row")
	}
	if s.Prefetch(0, -1) || s.Prefetch(0, 1<<40) || s.Prefetch(9, 0) {
		t.Error("out-of-range prefetch accepted")
	}
	st := s.Stream(0)
	RowTagged[int32](st, 3)
	RowTagged[int32](st, 4)
	snap := s.Snapshot()
	if snap.HotReads != 1 || snap.ColdReads != 1 || snap.Prefetches != 1 {
		t.Errorf("reads hot=%d cold=%d prefetches=%d, want 1/1/1", snap.HotReads, snap.ColdReads, snap.Prefetches)
	}
	if snap.HotReadRate != 0.5 {
		t.Errorf("hot read rate %v", snap.HotReadRate)
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
	if got := s.Window().CapacityBytes(); got != 1<<20 {
		t.Errorf("default window %d bytes, want 1 MiB", got)
	}
	s3 := openStreams(t, Config{HotBytes: 4 << 20, SweepEvery: -1}, testSpecs(t))
	if got := s3.Window().CapacityBytes(); got != 4<<20 {
		t.Errorf("window under a 4 MiB budget %d bytes, want the budget", got)
	}
	s4 := openStreams(t, Config{WindowBytes: 4096, SweepEvery: -1}, testSpecs(t))
	if got := s4.Window().CapacityBytes(); got != 4096 {
		t.Errorf("explicit window %d bytes, want 4096", got)
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
		got, cold := RowTagged[int16](s.Stream(0), row)
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
