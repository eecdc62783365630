// Package model defines recommendation model specifications: embedding table
// shapes, the MLP tower, and deterministic parameter materialisation.
//
// A specification separates *logical* sizes (used for storage accounting and
// placement decisions, exactly as the paper's production models with up to
// hundreds of millions of rows) from *materialised* parameters (functional
// arrays capacity-scaled so a 15.1 GB model does not need 15.1 GB of RAM).
// All placement, Cartesian-product and timing decisions depend only on the
// logical sizes, so the scaling preserves the paper's behaviour; see
// DESIGN.md "Hardware substitution".
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"microrec/internal/tensor"
)

// FloatBytes is the storage width of one embedding element. The paper assumes
// 32-bit floating-point storage for the tables (§3.3).
const FloatBytes = 4

// TableSpec describes one embedding table.
type TableSpec struct {
	// ID is the table's index within the model, stable across transforms.
	ID int
	// Name is a human-readable label ("user_id", "province_id", ...).
	Name string
	// Rows is the logical number of entries. Production tables reach
	// hundreds of millions of rows (§2.2).
	Rows int64
	// Dim is the embedding vector length (4–64 in most cases, §3.3).
	Dim int
	// Lookups is the number of vectors retrieved from this table per
	// inference. The production models use 1; DLRM-RMC2 uses 4 (§5.4.2).
	Lookups int
}

// Bytes returns the logical storage footprint of the table.
func (t TableSpec) Bytes() int64 { return t.Rows * int64(t.Dim) * FloatBytes }

// VectorBytes returns the byte size of one embedding vector, which is what a
// single memory access must transfer.
func (t TableSpec) VectorBytes() int { return t.Dim * FloatBytes }

// Validate checks the spec for internal consistency.
func (t TableSpec) Validate() error {
	if t.Rows <= 0 {
		return fmt.Errorf("model: table %q has %d rows", t.Name, t.Rows)
	}
	if t.Dim <= 0 {
		return fmt.Errorf("model: table %q has dim %d", t.Name, t.Dim)
	}
	if t.Lookups <= 0 {
		return fmt.Errorf("model: table %q has %d lookups", t.Name, t.Lookups)
	}
	return nil
}

// Spec describes a complete CTR-prediction model: sparse features resolved
// through embedding tables, concatenated (optionally with dense features) and
// fed through a fully-connected tower ending in a sigmoid (Figure 1).
type Spec struct {
	// Name identifies the model ("production-small", ...).
	Name string
	// Tables are the embedding tables.
	Tables []TableSpec
	// DenseDim is the number of raw dense features concatenated with the
	// embeddings. The production models contain none (footnote 1).
	DenseDim int
	// Hidden are the sizes of the hidden fully-connected layers, e.g.
	// (1024, 512, 256) for both production models (Table 1).
	Hidden []int
}

// FeatureLen returns the concatenated feature-vector length fed to the first
// FC layer: one vector per table lookup plus dense features.
func (s *Spec) FeatureLen() int {
	n := s.DenseDim
	for _, t := range s.Tables {
		n += t.Dim * t.Lookups
	}
	return n
}

// NumLookups returns the total embedding lookups per inference.
func (s *Spec) NumLookups() int {
	n := 0
	for _, t := range s.Tables {
		n += t.Lookups
	}
	return n
}

// TotalBytes returns the logical storage of all embedding tables.
func (s *Spec) TotalBytes() int64 {
	var n int64
	for _, t := range s.Tables {
		n += t.Bytes()
	}
	return n
}

// LayerDims returns the (in, out) dimensions of every FC layer including the
// final single-logit output layer.
func (s *Spec) LayerDims() [][2]int {
	dims := make([][2]int, 0, len(s.Hidden)+1)
	in := s.FeatureLen()
	for _, h := range s.Hidden {
		dims = append(dims, [2]int{in, h})
		in = h
	}
	dims = append(dims, [2]int{in, 1})
	return dims
}

// MACsPerItem returns the multiply-accumulate count of one inference through
// the FC tower, the quantity behind the paper's GOP/s figures (2 ops per MAC).
func (s *Spec) MACsPerItem() int64 {
	var macs int64
	for _, d := range s.LayerDims() {
		macs += int64(d[0]) * int64(d[1])
	}
	return macs
}

// OpsPerItem returns floating/fixed-point operations per inference
// (2 per MAC: multiply + add), matching the paper's GOP accounting.
func (s *Spec) OpsPerItem() int64 { return 2 * s.MACsPerItem() }

// Validate checks the whole spec.
func (s *Spec) Validate() error {
	if len(s.Tables) == 0 {
		return fmt.Errorf("model %q: no embedding tables", s.Name)
	}
	if len(s.Hidden) == 0 {
		return fmt.Errorf("model %q: no hidden layers", s.Name)
	}
	for i, t := range s.Tables {
		if t.ID != i {
			return fmt.Errorf("model %q: table %d has ID %d", s.Name, i, t.ID)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("model %q: %w", s.Name, err)
		}
	}
	for _, h := range s.Hidden {
		if h <= 0 {
			return fmt.Errorf("model %q: hidden size %d", s.Name, h)
		}
	}
	return nil
}

// SaveSpec writes the spec as indented JSON, the portable form a serving
// fleet ships around. Parameters need no file: a spec, a seed and a row cap
// regenerate them bit for bit (see Materialize).
func SaveSpec(w io.Writer, s *Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("model: encoding spec: %w", err)
	}
	return nil
}

// tableGroup is a helper for building specs: count tables of identical shape.
type tableGroup struct {
	count  int
	prefix string
	rows   int64
	dim    int
}

func buildTables(groups []tableGroup) []TableSpec {
	var tables []TableSpec
	for _, g := range groups {
		for i := 0; i < g.count; i++ {
			tables = append(tables, TableSpec{
				ID:      len(tables),
				Name:    fmt.Sprintf("%s_%d", g.prefix, i),
				Rows:    g.rows,
				Dim:     g.dim,
				Lookups: 1,
			})
		}
	}
	return tables
}

// SmallProduction returns a synthetic stand-in for the paper's smaller
// production model: 47 tables, 352-dim concatenated feature, hidden layers
// (1024, 512, 256), ~1.3 GB of embeddings (Table 1).
//
// The size distribution is engineered so the placement study reproduces
// Table 3: ten tiny tables (Cartesian candidates merging into five products),
// eight on-chip-cacheable tables, and a long tail up to a 1 GB user-ID table.
func SmallProduction() *Spec {
	groups := []tableGroup{
		// Ten tiny Cartesian candidates (dim 4, hundreds to ~2k rows).
		// Row counts are tuned so the five products cost ~3% extra
		// storage, matching Table 3's 103.2%.
		{1, "geo_region", 110, 4},
		{1, "device_class", 170, 4},
		{1, "ad_slot", 260, 4},
		{1, "hour_bucket", 380, 4},
		{1, "os_version", 520, 4},
		{1, "network_type", 620, 4},
		{1, "page_type", 780, 4},
		{1, "creative_kind", 950, 4},
		{1, "city_tier", 1300, 4},
		{1, "category_l1", 1700, 4},
		// Eight on-chip-cacheable tables (<= 256 KB each).
		{8, "ctx_small", 12000, 4},
		// Twelve mid dim-4 tables.
		{12, "ctx_mid", 24000, 4},
		// Ten dim-8 tables.
		{10, "behavior", 50000, 8},
		// Four dim-16 tables.
		{4, "merchant", 150000, 16},
		// One dim-24 table.
		{1, "brand", 200000, 24},
		// Two large dim-32 tables dominating storage.
		{1, "item_id", 1500000, 32},
		{1, "user_id", 8000000, 32},
	}
	return &Spec{
		Name:   "production-small",
		Tables: buildTables(groups),
		Hidden: []int{1024, 512, 256},
	}
}

// LargeProduction returns a synthetic stand-in for the paper's larger
// production model: 98 tables, 876-dim feature, hidden (1024, 512, 256),
// ~15.1 GB of embeddings (Table 1). Twenty-eight tiny tables act as Cartesian
// candidates (merging into fourteen products) and sixteen tables are
// on-chip-cacheable, reproducing Table 3's counts.
func LargeProduction() *Spec {
	groups := []tableGroup{
		// Twenty-eight tiny Cartesian candidates (dim 4). Row counts are
		// tuned so the fourteen products cost ~1.9% extra storage,
		// matching Table 3's 101.9%.
		{4, "flag", 200, 4},
		{4, "slot", 420, 4},
		{4, "bucket", 680, 4},
		{4, "kind", 900, 4},
		{4, "tier", 1120, 4},
		{4, "group", 1450, 4},
		{4, "zone", 2100, 4},
		// Sixteen on-chip-cacheable tables.
		{16, "ctx_small", 12000, 4},
		// Thirty dim-8 tables.
		{30, "behavior", 250000, 8},
		// One dim-12 table.
		{1, "session", 300000, 12},
		// Twenty dim-16 tables.
		{20, "merchant", 2000000, 16},
		// Two dim-32 tables.
		{2, "shop_id", 8000000, 32},
		// One dim-64 user table dominating storage.
		{1, "user_id", 40000000, 64},
	}
	return &Spec{
		Name:   "production-large",
		Tables: buildTables(groups),
		Hidden: []int{1024, 512, 256},
	}
}

// DLRMRMC2 returns a model of Facebook's embedding-dominated DLRM-RMC2 class
// (Gupta et al. 2020): numTables small tables (8–12 published range), each
// looked up four times, embedding dimension dim (the paper sweeps 4–64). Each
// table fits one 256 MB HBM bank, per the paper's §5.4.2 assumptions.
func DLRMRMC2(numTables, dim int) (*Spec, error) {
	if numTables < 1 {
		return nil, fmt.Errorf("model: DLRM-RMC2 needs at least one table, got %d", numTables)
	}
	if dim < 1 {
		return nil, fmt.Errorf("model: DLRM-RMC2 dim %d", dim)
	}
	const rows = 1_000_000 // 1M x 64 x 4B = 256 MB worst case: fits one bank
	tables := make([]TableSpec, numTables)
	for i := range tables {
		tables[i] = TableSpec{
			ID:      i,
			Name:    fmt.Sprintf("rmc2_table_%d", i),
			Rows:    rows,
			Dim:     dim,
			Lookups: 4,
		}
	}
	return &Spec{
		Name:   fmt.Sprintf("dlrm-rmc2-%dx%d", numTables, dim),
		Tables: tables,
		Hidden: []int{256, 128, 64},
	}, nil
}

// Parameters are a model's materialised (possibly capacity-scaled)
// parameters as a seed-addressable stream. The FC tower is resident; the
// embedding tables are not. Every table value is a position of the seed's
// stream (see stream.go), and Parameters keeps the stream's checkpoints, not
// its values: an engine stores its tables at its datapath's width
// (FillTables), and a float reader regenerates the rows it asks for
// (ReadRows, Row). Nothing holds a float copy of a table unless a caller
// asks for one (FloatTables).
//
// The stream runs once, the first time anything needs it — the first
// FillTables, whose tables it writes in the same pass, or the first read of
// a row or a layer. Parameters are safe for concurrent use.
type Parameters struct {
	Spec *Spec
	// ActualRows[i] is the materialised row count of table i. Logical row r
	// maps to r % ActualRows[i].
	ActualRows []int64

	seed    int64
	workers int   // converter goroutines per pass
	starts  []int // starts[i]: table i's first stream position; starts[n]: the FC tower's
	// mu guards the stream's state: ran, gone, cp and the FC tower below.
	mu   sync.RWMutex
	ran  bool         // the stream has run
	gone bool         // Released
	cp   *checkpoints // set by the run; nil after Release
	// weights[l] is FC layer l's (in x out) weight matrix; biases[l] its
	// output bias. The last layer is the single-logit output layer.
	weights []*tensor.Matrix
	biases  [][]float32
}

// MaterializeOptions controls parameter materialisation.
type MaterializeOptions struct {
	// Seed makes materialisation deterministic.
	Seed int64
	// MaxRowsPerTable caps the materialised rows of any table
	// (capacity scaling). Zero means the default of 2048.
	MaxRowsPerTable int64
}

// DefaultMaxRows is the default materialised-row cap.
const DefaultMaxRows = 2048

// Materialize creates deterministic parameters for the spec. Embedding values
// are drawn uniform in [-1, 1); FC weights use scaled uniform (Xavier-style)
// initialisation so activations stay inside the fixed-point range. The values
// are those of rand.New(rand.NewSource(Seed)).Float32()*2 - 1, drawn table by
// table and then layer by layer (weights, then bias), each scaled as above;
// the drawing runs on GOMAXPROCS goroutines (see stream.go). Materialize
// itself only sizes the tables: it draws nothing and maps nothing.
func (s *Spec) Materialize(opts MaterializeOptions) (*Parameters, error) {
	return s.materialize(opts, runtime.GOMAXPROCS(0))
}

// materialize is Materialize with the converter count explicit.
func (s *Spec) materialize(opts MaterializeOptions, workers int) (*Parameters, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	maxRows := opts.MaxRowsPerTable
	if maxRows == 0 {
		maxRows = DefaultMaxRows
	}
	if maxRows < 1 {
		return nil, fmt.Errorf("model: MaxRowsPerTable %d", maxRows)
	}
	p := &Parameters{
		Spec:       s,
		ActualRows: make([]int64, len(s.Tables)),
		seed:       opts.Seed,
		workers:    workers,
		starts:     make([]int, len(s.Tables)+1),
	}
	for i, t := range s.Tables {
		p.ActualRows[i] = min(t.Rows, maxRows)
		p.starts[i+1] = p.starts[i] + int(p.ActualRows[i])*t.Dim
	}
	return p, nil
}

// errReleased is what a Parameters reader gets after Release.
var errReleased = errors.New("model: parameters released")

// TableSink receives embedding values as the stream produces them: vals are
// table t's values from element off on (row-major: row r, column c is
// element r*Dim + c). Calls for disjoint ranges run concurrently, one per
// converter goroutine; vals is valid only during the call.
type TableSink func(t, off int, vals []float32)

// FillTables hands every embedding table's values to sink, each exactly
// once. The first fill is the stream's one pass: it writes the tables,
// records the checkpoints and materialises the FC tower together. Every
// later fill regenerates the tables from the checkpoints, block by block on
// every core. Fills of one Parameters run one at a time.
func (p *Parameters) FillTables(sink TableSink) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.gone:
		return errReleased
	case !p.ran:
		p.run(sink)
	default:
		p.cp.refill(p.tableSegments(sink), p.workers)
	}
	return nil
}

// tableSegments are the stream's table segments, each handing its values to
// sink (none when sink is nil).
func (p *Parameters) tableSegments(sink TableSink) []segment {
	segs := make([]segment, len(p.Spec.Tables))
	for t := range segs {
		segs[t] = segment{n: p.starts[t+1] - p.starts[t], scale: 1}
		if sink != nil {
			segs[t].put = func(off int, vals []float32) { sink(t, off, vals) }
		}
	}
	return segs
}

// run is the stream's one pass: tables through sink, then the FC tower,
// recording the tables' checkpoints. Callers hold p.mu.
func (p *Parameters) run(sink TableSink) {
	segs := p.tableSegments(sink)
	for _, d := range p.Spec.LayerDims() {
		in, out := d[0], d[1]
		w := tensor.NewMatrix(in, out)
		b := make([]float32, out)
		segs = append(segs,
			segment{n: len(w.Data), scale: float32(1 / math.Sqrt(float64(in))), put: func(off int, vals []float32) { copy(w.Data[off:], vals) }},
			segment{n: out, scale: 0.1, put: func(off int, vals []float32) { copy(b[off:], vals) }})
		p.weights = append(p.weights, w)
		p.biases = append(p.biases, b)
	}
	record := p.starts[len(p.Spec.Tables)]
	if p.gone {
		record = 0 // released before it ran: nothing may read a row
	}
	p.cp = fill(p.seed, segs, p.workers, record)
	p.ran = true
}

// ensureRun runs the stream if nothing has yet.
func (p *Parameters) ensureRun() {
	p.mu.Lock()
	if !p.ran {
		p.run(nil)
	}
	p.mu.Unlock()
}

// Layers returns the FC tower: weights[l] is layer l's (in x out) weight
// matrix, biases[l] its output bias; the last layer is the single-logit
// output layer. They are resident and shared — callers must not modify
// them.
func (p *Parameters) Layers() (weights []*tensor.Matrix, biases [][]float32) {
	p.ensureRun()
	return p.weights, p.biases
}

// Release hands the checkpoints' memory back: they live outside the Go heap
// (see internal/offheap), where the collector cannot reclaim them. Call it
// once nothing reads the parameters' tables any more — no fill or row read
// in flight, no engine built from them that will still read a float row
// (Engine.Gather, ReferenceOne); without it the checkpoints stay mapped until
// the process exits. The FC tower is untouched. Releasing twice is harmless.
func (p *Parameters) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cp != nil {
		p.cp.release()
		p.cp = nil
	}
	p.gone = true
}

// RowRead asks for one embedding row: the Dim values of table Table's
// logical row Index (wrapping through the capacity-scaled storage), written
// to Dst.
type RowRead struct {
	Table int
	Index int64
	Dst   []float32
}

// position validates a read and returns its first stream position.
func (p *Parameters) position(r RowRead) (int, error) {
	if r.Table < 0 || r.Table >= len(p.Spec.Tables) {
		return 0, fmt.Errorf("model: table %d out of range", r.Table)
	}
	spec := p.Spec.Tables[r.Table]
	if r.Index < 0 || r.Index >= spec.Rows {
		return 0, fmt.Errorf("model: row %d out of range for table %q (%d rows)", r.Index, spec.Name, spec.Rows)
	}
	if len(r.Dst) != spec.Dim {
		return 0, fmt.Errorf("model: row of table %q has %d values, destination %d", spec.Name, spec.Dim, len(r.Dst))
	}
	return p.starts[r.Table] + int(r.Index%p.ActualRows[r.Table])*spec.Dim, nil
}

// ReadRows regenerates the requested rows from the stream's checkpoints.
// Reads are served in stream order, so rows in one block share its
// regeneration, and each block is extended only as far as its last row.
func (p *Parameters) ReadRows(reads []RowRead) error {
	pos := make([]int, len(reads))
	order := make([]int, len(reads))
	for i, r := range reads {
		var err error
		if pos[i], err = p.position(r); err != nil {
			return err
		}
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pos[order[a]] < pos[order[b]] })
	p.ensureRun()
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.gone {
		return errReleased
	}
	buf := readerBufs.Get().(*[]uint64)
	defer readerBufs.Put(buf)
	r := reader{buf: *buf, k: -1}
	for _, i := range order {
		r.read(p.cp, pos[i], reads[i].Dst)
	}
	return nil
}

// readerBufs recycles ReadRows' block buffers (a quarter megabyte each).
var readerBufs = sync.Pool{New: func() any {
	b := make([]uint64, lagLong+blockDraws)
	return &b
}}

// Row returns the materialised embedding vector for logical row index of
// table i (wrapping through the capacity-scaled storage), regenerated into a
// fresh slice. Only tests call it: it is the per-row float reference the
// core, tensor and facade tests compare the datapath's rows against, so
// deadexport is allowed on it.
func (p *Parameters) Row(table int, index int64) ([]float32, error) { //microrec:allow deadexport
	if table < 0 || table >= len(p.Spec.Tables) {
		return nil, fmt.Errorf("model: table %d out of range", table)
	}
	dst := make([]float32, p.Spec.Tables[table].Dim)
	if err := p.ReadRows([]RowRead{{Table: table, Index: index, Dst: dst}}); err != nil {
		return nil, err
	}
	return dst, nil
}

// Features resolves one query's indices (q[t]: table t's Lookups row
// indices) into the float feature vector the FC tower reads: spec order,
// lookup-minor, every row regenerated through ReadRows, then the dense
// features, which are zero. dst is allocated when nil and must otherwise hold
// FeatureLen values. Features and Forward are the model's float reference,
// the one the fixed-point datapaths are measured against.
func (p *Parameters) Features(q [][]int64, dst []float32) ([]float32, error) {
	s := p.Spec
	if len(q) != len(s.Tables) {
		return nil, fmt.Errorf("model: query covers %d tables, model has %d", len(q), len(s.Tables))
	}
	if dst == nil {
		dst = make([]float32, s.FeatureLen())
	} else if len(dst) != s.FeatureLen() {
		return nil, fmt.Errorf("model: features length %d, want %d", len(dst), s.FeatureLen())
	}
	reads := make([]RowRead, 0, s.NumLookups())
	off := 0
	for t, ts := range s.Tables {
		if len(q[t]) != ts.Lookups {
			return nil, fmt.Errorf("model: table %q expects %d lookups, query has %d", ts.Name, ts.Lookups, len(q[t]))
		}
		for _, idx := range q[t] {
			reads = append(reads, RowRead{Table: t, Index: idx, Dst: dst[off : off+ts.Dim]})
			off += ts.Dim
		}
	}
	clear(dst[off:])
	if err := p.ReadRows(reads); err != nil {
		return nil, err
	}
	return dst, nil
}

// Forward runs the float32 FC tower over a feature vector (Features) and
// returns the predicted CTR: each layer is x·W plus bias, ReLU on the hidden
// layers, and a sigmoid on the final logit. layer, when not nil, sees each
// layer's output as the next layer reads it (post-ReLU; the logit for the
// last layer), valid only during the call.
func (p *Parameters) Forward(feat []float32, layer func(l int, out []float32)) (float32, error) {
	weights, biases := p.Layers()
	x := feat
	for l, w := range weights {
		y, err := tensor.VecMat(x, w)
		if err != nil {
			return 0, fmt.Errorf("model: layer %d: %w", l, err)
		}
		for j := range y {
			y[j] += biases[l][j]
		}
		if l < len(weights)-1 {
			tensor.ReLU(y)
		}
		if layer != nil {
			layer(l, y)
		}
		x = y
	}
	out := []float32{x[0]}
	tensor.Sigmoid(out)
	return out[0], nil
}

// FloatTables returns every embedding table as row-major float32 in heap
// memory (table i holds ActualRows[i] x Dim values), regenerated from the
// stream: the whole-table oracle the tests hold ReadRows and Features to, on
// small row caps. Engines store their tables at their own width instead.
// Only tests call it, as that reference, so deadexport is allowed on it.
func (p *Parameters) FloatTables() ([][]float32, error) { //microrec:allow deadexport
	tables := make([][]float32, len(p.Spec.Tables))
	for t := range tables {
		tables[t] = make([]float32, p.starts[t+1]-p.starts[t])
	}
	err := p.FillTables(func(t, off int, vals []float32) { copy(tables[t][off:], vals) })
	if err != nil {
		return nil, err
	}
	return tables, nil
}
