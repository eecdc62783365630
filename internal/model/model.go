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
	"fmt"
	"math"
	"runtime"

	"microrec/internal/offheap"
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

// Clone returns a deep copy of the spec.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Tables = append([]TableSpec(nil), s.Tables...)
	c.Hidden = append([]int(nil), s.Hidden...)
	return &c
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

// WithLookupRounds returns a copy of the spec with every table's lookup count
// multiplied by rounds, modelling the multi-round retrieval scenario of
// Figure 7.
func (s *Spec) WithLookupRounds(rounds int) (*Spec, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("model: lookup rounds %d", rounds)
	}
	c := s.Clone()
	c.Name = fmt.Sprintf("%s-rounds%d", s.Name, rounds)
	for i := range c.Tables {
		c.Tables[i].Lookups *= rounds
	}
	return c, nil
}

// Parameters holds materialised (possibly capacity-scaled) model parameters.
type Parameters struct {
	Spec *Spec
	// Embeddings[i] is table i's materialised rows, row-major
	// (ActualRows[i] x Dim). Logical row r maps to r % ActualRows[i].
	// Materialize keeps large tables outside the Go heap; see Release.
	Embeddings [][]float32
	// ActualRows[i] is the materialised row count of table i.
	ActualRows []int64
	// Weights[l] is FC layer l's (in x out) weight matrix; Biases[l] its
	// output bias. The last layer is the single-logit output layer.
	Weights []*tensor.Matrix
	Biases  [][]float32
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
// the drawing runs on GOMAXPROCS goroutines (see stream.go).
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
		Embeddings: make([][]float32, len(s.Tables)),
		ActualRows: make([]int64, len(s.Tables)),
	}
	var segs []segment
	for i, t := range s.Tables {
		rows := t.Rows
		if rows > maxRows {
			rows = maxRows
		}
		p.ActualRows[i] = rows
		p.Embeddings[i] = offheap.Floats(int(rows) * t.Dim)
		segs = append(segs, segment{p.Embeddings[i], 1})
	}
	for _, d := range s.LayerDims() {
		in, out := d[0], d[1]
		w := tensor.NewMatrix(in, out)
		b := make([]float32, out)
		segs = append(segs, segment{w.Data, float32(1 / math.Sqrt(float64(in)))}, segment{b, 0.1})
		p.Weights = append(p.Weights, w)
		p.Biases = append(p.Biases, b)
	}
	fill(opts.Seed, segs, workers)
	return p, nil
}

// Release hands the embedding tables' memory back: Materialize keeps large
// tables outside the Go heap (see internal/offheap), where the collector
// cannot reclaim them. Call it once nothing uses the parameters any more —
// every engine built from them is closed, no row slice is retained; without
// it the tables stay mapped until the process exits. The tables are gone
// afterwards (Embeddings' entries are nil); the FC weights are untouched.
func (p *Parameters) Release() {
	for i, t := range p.Embeddings {
		offheap.Free(t)
		p.Embeddings[i] = nil
	}
}

// Row returns the materialised embedding vector for logical row index of
// table i (wrapping through the capacity-scaled storage).
func (p *Parameters) Row(table int, index int64) ([]float32, error) {
	if table < 0 || table >= len(p.Embeddings) {
		return nil, fmt.Errorf("model: table %d out of range", table)
	}
	spec := p.Spec.Tables[table]
	if index < 0 || index >= spec.Rows {
		return nil, fmt.Errorf("model: row %d out of range for table %q (%d rows)", index, spec.Name, spec.Rows)
	}
	r := index % p.ActualRows[table]
	dim := int64(spec.Dim)
	return p.Embeddings[table][r*dim : (r+1)*dim], nil
}
