package microrec_test

// This file is the single home of the datapath's zero-allocation pins. Every
// function annotated //microrec:noalloc in the tree appears in exactly one
// row's covers list below, and two tests enforce the contract from both
// sides:
//
//   - TestNoallocAnnotationTableComplete parses the source tree (under the
//     same build tags the test itself was compiled with) and diffs the
//     annotated-function set against the union of the covers lists. Adding
//     an annotation without extending the table fails, and so does stripping
//     an annotation the table still claims — the static hotalloc analyzer
//     and this dynamic table can never silently drift apart.
//
//   - TestNoallocFunctionsAllocationFree drives every row's runner under
//     testing.AllocsPerRun and requires exactly zero allocations per run.
//
// Rows for build-gated kernels live in a sibling file with a matching
// constraint (zeroalloc_amd64_test.go), so the table reshapes itself with the
// build exactly as the source set does; a row whose kernel needs a CPU
// feature the host lacks is skipped by name, never silently run on a fallback.
// kernels.QuantizeRow and kernels.UnitFloats choose their path (AVX-512,
// batched scalar, or the reference under noasm) inside one name, so their
// row is portable.

import (
	"context"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/fixedpoint"
	"microrec/internal/hotcache"
	"microrec/internal/kernels"
	"microrec/internal/model"
	"microrec/internal/obs"
	"microrec/internal/serving"
	"microrec/internal/tieredstore"
)

// parseTags is the build-tag list the annotation parser satisfies, mirroring
// the tags this test binary was built with. The default build satisfies
// none; zeroalloc_noasm_test.go switches it under -tags noasm.
var parseTags []string

// zeroallocArch holds the rows contributed by build-constrained sibling
// files (optimized kernels that only exist on some build shapes).
var zeroallocArch []allocCase

type allocCase struct {
	name string
	// covers lists the annotated functions this runner executes, keyed as
	// "<package dir>.<receiver.>name" (e.g. "internal/core.Engine.DenseFromPlane").
	covers []string
	run    func()
	// skip, when set, is why this host cannot execute the row (a kernel
	// built for a CPU feature it lacks).
	skip string
}

// allocQueries mirrors the per-package randomQueries test helpers: n valid
// queries for spec with deterministic indices.
func allocQueries(spec *model.Spec, n int, seed int64) []embedding.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]embedding.Query, n)
	for i := range qs {
		q := embedding.NewQuery(spec)
		for ti, tab := range spec.Tables {
			for k := range q[ti] {
				q[ti][k] = rng.Int63n(tab.Rows)
			}
		}
		qs[i] = q
	}
	return qs
}

// zeroallocCases builds the portable rows. Most gather rows run a batch of 8;
// core/gather-b64 runs a full batch of 64, which the gather walks on the
// calling goroutine just the same.
func zeroallocCases(t *testing.T) []allocCase {
	t.Helper()
	spec := model.SmallProduction()
	cfg := core.Config{Precision: fixedpoint.Fixed16}
	params, err := spec.Materialize(model.MaterializeOptions{Seed: 1, MaxRowsPerTable: 128})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(params, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const b = 8
	qs := allocQueries(spec, b, 3)

	var gatherScratch core.BatchScratch
	eng.EnsurePlane(&gatherScratch, b)
	eng32, err := core.Build(params, core.Config{Precision: fixedpoint.Fixed32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng32.Close() })
	var scratch32 core.BatchScratch
	eng32.EnsurePlane(&scratch32, b)
	eng32.GatherIntoPlane(qs, &scratch32)
	qs64 := allocQueries(spec, 64, 4)
	var scratch64 core.BatchScratch
	eng.EnsurePlane(&scratch64, len(qs64))
	preds := make([]float32, b)

	// A full 16-row cache: each run hits the row it keeps most recent, misses
	// a fresh row (evicting the least recent) and looks up an uncacheable one.
	const lruRowBytes = 64
	lru, err := hotcache.New(16 * lruRowBytes)
	if err != nil {
		t.Fatal(err)
	}
	lruFresh := int64(0)
	for ; lruFresh < 32; lruFresh++ {
		lru.Lookup(0, lruFresh, lruRowBytes)
	}
	lruHot := lruFresh - 1

	rec := obs.NewRecorder(256, 1)
	span := obs.Span{Start: 1, EndToEndNS: 9, GatherNS: 3, DenseNS: 4, TailNS: 2, Batch: b}

	const (
		tsRows = 64
		tsDim  = 8
	)
	ts, err := tieredstore.Open(
		tieredstore.Config{SweepEvery: -1, HotBytes: 1 << 30}, 4,
		[]tieredstore.StreamSpec{{ID: 0, Rows: tsRows, Dim: tsDim}},
		func(io.WriterAt, []int64) error { return nil }, // zero rows
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	hotHalf := make([]int64, tsRows/2)
	for i := range hotHalf {
		hotHalf[i] = int64(i)
	}
	ts.SetPlacement(0, hotHalf) // rows 0..31 hot, 32..63 cold: exercise both tiers
	stream := ts.Stream(0)

	// The tiered engine's gather reads half its rows hot and half cold. Its
	// frequency window holds fewer rows than one batch reads, so every
	// gather both hits and evicts. Repeating the batch makes the window's
	// contents periodic within a few passes; the warm-up reaches that state,
	// after which neither the slab nor the index grows.
	tieredCfg := cfg
	tieredCfg.ColdTier = &tieredstore.Config{SweepEvery: -1, HotBytes: 1 << 30, WindowBytes: 4 << 10}
	tieredEng, err := core.Build(params, tieredCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tieredEng.Close() })
	tier := tieredEng.Tier()
	for id := 0; id < tier.Streams(); id++ {
		tier.SetPlacement(id, hotHalf)
	}
	var tieredScratch core.BatchScratch
	tieredEng.EnsurePlane(&tieredScratch, b)
	for i := 0; i < 8; i++ {
		tieredEng.GatherIntoPlane(qs, &tieredScratch)
	}
	warm := tier.Window().Stats()
	tieredEng.GatherIntoPlane(qs, &tieredScratch)
	if st := tier.Window().Stats(); st.Hits == warm.Hits || st.Misses == warm.Misses || st.Entries != warm.Entries {
		t.Fatalf("a warm tiered gather should hit and evict in the window at constant occupancy: before %+v, after %+v", warm, st)
	}
	if st := tier.Snapshot(); st.HotReads == 0 || st.ColdReads == 0 {
		t.Fatalf("the tiered gather should read both tiers: %+v", st)
	}

	srv, err := serving.New(eng, serving.Options{
		Batching: serving.BatchingOptions{MaxBatch: 16},
		Pipeline: serving.PipelineOptions{Depth: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srvQ := allocQueries(spec, 1, 5)[0]
	var srvSkip string
	if raceEnabled {
		// Requests and batches are recycled through sync.Pools.
		srvSkip = "sync.Pool drops puts under -race"
	}

	k16, k32 := newKernelFixture[int16](fixedpoint.Fixed16), newKernelFixture[int32](fixedpoint.Fixed32)
	quant := kernels.NewQuantizer(fixedpoint.Fixed16)
	qsrc := make([]float32, 48)
	qdst := make([]int16, 48)
	for i := range qsrc {
		qsrc[i] = float32(i)/16 - 1
	}
	hintRows := [3]int64{0, 3, 1} // rows of qsrc read as a 12-float-row table
	unitDraws := make([]uint64, 11)
	for i := range unitDraws {
		unitDraws[i] = uint64(i) << 59
	}
	// A window and 45 new draws: five vectors and a scalar tail.
	streamBuf := make([]uint64, kernels.LagLong+45)
	for i := range streamBuf[:kernels.LagLong] {
		streamBuf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}

	return []allocCase{
		{
			name: "core/gather",
			covers: []string{
				"internal/core.Engine.GatherIntoPlane",
				"internal/core.fixedPath.gatherTables",
				"internal/core.fixedPath.zeroDenseTail",
				"internal/core.gatherSeq.next",
				"internal/core.fixedPath.hintWindow",
				"internal/core.gatherBlock.resolve",
				"internal/core.fixedPath.hint",
				"internal/core.rowMod.reduce",
			},
			// Once as a batch and once query by query: a batch of 8 cuts
			// blocks into windows, a batch of 1 packs blocks into one.
			run: func() {
				eng.GatherIntoPlane(qs, &gatherScratch)
				eng.GatherIntoPlane(qs[:1], &gatherScratch)
			},
		},
		{
			// Admission's check of a query's shape, layout and ranges, which
			// every Submit runs: one pointer compare per table on top of the
			// length and range checks.
			name:   "core/validate-query",
			covers: []string{"internal/core.indices"},
			run: func() {
				for _, q := range qs {
					if err := eng.ValidateQuery(q); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// core/gather's gather at a full batch of 64: every block is
			// one whole window, and the walk stays on this goroutine.
			name:   "core/gather-b64",
			covers: []string{"internal/core.Engine.gatherBatchValidated"},
			run:    func() { eng.GatherIntoPlane(qs64, &scratch64) },
		},
		{
			// core/gather's gather on a tiered engine: each row is
			// recorded in the store's frequency window and copied, at the
			// plane's width, from the hot tier or the cold file.
			name: "core/gather-tiered",
			covers: []string{
				"internal/tieredstore.RowTagged",
				"internal/tieredstore.Stream.rowTagged",
				"internal/hotcache.Live.Lookup",
			},
			run: func() { tieredEng.GatherIntoPlane(qs, &tieredScratch) },
		},
		{
			// The engine's prefetch on the same engine (the repository
			// benchmark's tracer wraps it): the cold half of the batch's
			// rows touched, the hot half skipped.
			name:   "core/prefetch-tiered",
			covers: []string{"internal/core.Engine.PrefetchBatch", "internal/tieredstore.Store.Prefetch"},
			run:    func() { tieredEng.PrefetchBatch(qs) },
		},
		{
			name:   "hotcache/lookup",
			covers: []string{"internal/hotcache.Cache.Lookup"},
			run: func() {
				if !lru.Lookup(0, lruHot, lruRowBytes) {
					t.Fatal("hot row evicted")
				}
				if lru.Lookup(0, lruFresh, lruRowBytes) {
					t.Fatal("fresh row hit")
				}
				lruFresh++
				lru.Lookup(0, lruFresh, 0)
			},
		},
		{
			name: "core/dense-tail",
			covers: []string{
				"internal/core.Engine.DenseFromPlane",
				"internal/core.Engine.TailFromPlane",
				"internal/core.fixedPath.dense",
				"internal/core.fixedPath.tail",
				"internal/core.fixedPath.layer",
			},
			run: func() {
				eng.DenseFromPlane(b, &gatherScratch)
				eng.TailFromPlane(b, &gatherScratch, preds)
			},
		},
		{
			// The same stages on a 32-bit engine, whose GEMM converts the
			// plane into the float64 plane EnsurePlane sized.
			name: "core/dense-tail-fixed32",
			covers: []string{
				"internal/core.fixedPath.dense",
				"internal/core.fixedPath.tail",
				"internal/core.fixedPath.layer",
			},
			run: func() {
				eng32.DenseFromPlane(b, &scratch32)
				eng32.TailFromPlane(b, &scratch32, preds)
			},
		},
		{
			// One query through the staged drain: batcher, the three stage
			// loops and the stage steps they call, and the response future.
			name: "serving/staged-round-trip",
			covers: []string{
				"internal/serving.Server.gatherLoop",
				"internal/serving.Server.denseLoop",
				"internal/serving.Server.tailLoop",
				"internal/serving.Server.gather",
				"internal/serving.Server.dense",
				"internal/serving.Server.tail",
			},
			run: func() {
				if _, err := srv.Submit(context.Background(), srvQ); err != nil {
					t.Fatal(err)
				}
			},
			skip: srvSkip,
		},
		{
			name: "obs/span-record",
			covers: []string{
				"internal/obs.Recorder.Sample",
				"internal/obs.Recorder.Record",
				"internal/obs.Span.encode",
			},
			run: func() {
				if rec.Sample() {
					spanSink = rec.Record(span)
				}
			},
		},
		{
			name: "tieredstore/row-access",
			covers: []string{
				"internal/tieredstore.Stream.PrefetchRow",
			},
			run: func() {
				rowSink, _ = tieredstore.RowTagged[int32](stream, 2)  // hot tier
				rowSink, _ = tieredstore.RowTagged[int32](stream, 40) // cold tier
				stream.PrefetchRow(41)
			},
		},
		{
			name: "kernels/reference",
			covers: []string{
				"internal/kernels.GemmRef",
				"internal/kernels.LayerRef",
				"internal/kernels.Impl.Run",
				"internal/kernels.QuantizeRowRef",
				"internal/kernels.QuantizeRow",
				"internal/kernels.UnitFloatsRef",
				"internal/kernels.UnitFloats",
				"internal/kernels.PrefetchRow",
				"internal/kernels.PrefetchRows",
				"internal/fixedpoint.FinishRow",
			},
			run: func() {
				k16.layer(kernels.LayerRef[int16])
				k32.layer(kernels.LayerRef[int32])
				kernels.QuantizeRowRef(fixedpoint.Fixed16, qsrc, qdst)
				kernels.QuantizeRow(&quant, qsrc, qdst)
				kernels.UnitFloatsRef(unitDraws, 1, qsrc[:len(unitDraws)])
				kernels.UnitFloats(unitDraws, 1, qsrc[:len(unitDraws)])
				kernels.PrefetchRow(qsrc)
				kernels.PrefetchRows(qsrc, 12, hintRows[:])
			},
		},
		{
			name: "kernels/stream-extend",
			covers: []string{
				"internal/kernels.ExtendRef",
				"internal/kernels.Extend",
			},
			run: func() {
				kernels.ExtendRef(streamBuf)
				kernels.Extend(streamBuf)
			},
		},
	}
}

// kernelFixture is one small packed layer and plane pair at element type T,
// shared by the reference row above and the per-implementation rows in
// zeroalloc_amd64_test.go. The shape is ragged on purpose (a full strip and
// then rows past one four-row tile and one six-row tile, in past one 512-bit
// vector, out past one 4-output group), and the weights are at the
// production models' magnitudes (±1/sqrt(in), raw), so each kernel runs its
// real body: the 16-bit kernels on their widening cadence, the 32-bit ones
// in float64 chunks rather than the reference fallback. acc and f are one
// strip's scratch.
type kernelFixture[T kernels.Elem] struct {
	b, stride int
	x         []T
	acc       []int64
	f         []float64
	w         kernels.Weights[T]
	bias      []int64
	e         fixedpoint.Epilogue
}

func newKernelFixture[T kernels.Elem](format fixedpoint.Format) *kernelFixture[T] {
	const b, in, out = kernels.StripRows + 7, 35, 6
	maxAbs := int(format.Scale() / math.Sqrt(in))
	k := &kernelFixture[T]{b: b, w: kernels.Pack(in, out, func(i, j int) T { return T((i+j)%(2*maxAbs+1) - maxAbs) })}
	k.stride = max(k.w.InP, k.w.OutP)
	k.x = make([]T, b*k.stride)
	k.acc = make([]int64, kernels.StripRows*k.stride)
	k.f = make([]float64, kernels.StripRows*k.stride)
	k.bias = make([]int64, out)
	k.e = format.Epilogue()
	for i := range k.x {
		k.x[i] = T(i%7 - 3)
	}
	return k
}

// layer runs the fixture's layer through fc, in place over its plane.
func (k *kernelFixture[T]) layer(fc kernels.LayerFunc[T]) {
	fc(k.x, k.b, k.stride, &k.w, k.bias, &k.e, true, k.acc, k.f)
}

// Sinks keep results live so the runners cannot be dead-code-eliminated.
var (
	spanSink uint64
	rowSink  []int32
)

// TestNoallocFunctionsAllocationFree is the consolidated AllocsPerRun pin:
// every annotated hot-path function, exercised through its natural entry
// point, allocates nothing in steady state.
func TestNoallocFunctionsAllocationFree(t *testing.T) {
	for _, c := range append(zeroallocCases(t), zeroallocArch...) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.skip != "" {
				t.Skip(c.skip)
			}
			c.run() // warm: ring buffers, lazily-sized scratch, page faults
			if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
				t.Errorf("%s: %v allocs per run, want 0 (covers %v)", c.name, allocs, c.covers)
			}
		})
	}
}

// TestNoallocAnnotationTableComplete diffs the //microrec:noalloc annotation
// set parsed from source against the covers lists above. The parse respects
// the build tags this test was compiled with, so the noasm leg expects
// exactly the portable set.
func TestNoallocAnnotationTableComplete(t *testing.T) {
	annotated := parseNoallocAnnotations(t)
	covered := make(map[string]string)
	for _, c := range append(zeroallocCases(t), zeroallocArch...) {
		if len(c.covers) == 0 {
			t.Errorf("case %s covers nothing; every row must pin at least one annotated function", c.name)
		}
		for _, key := range c.covers {
			covered[key] = c.name
		}
	}
	for key := range annotated {
		if _, ok := covered[key]; !ok {
			t.Errorf("%s is annotated //microrec:noalloc but no zeroalloc case covers it; add it to a covers list with a runner", key)
		}
	}
	keys := make([]string, 0, len(covered))
	for key := range covered {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !annotated[key] {
			t.Errorf("case %s claims to cover %s, which has no //microrec:noalloc annotation in source; the annotation was moved or stripped", covered[key], key)
		}
	}
	if len(annotated) == 0 {
		t.Fatal("parsed zero //microrec:noalloc annotations; the source scan is broken")
	}
}

// parseNoallocAnnotations walks internal/ and cmd/ (the test runs with the
// repo root as working directory), skipping analyzer fixture trees, and
// returns the set of functions whose doc comment carries the directive.
func parseNoallocAnnotations(t *testing.T) map[string]bool {
	t.Helper()
	ctx := build.Default
	ctx.BuildTags = append([]string{}, parseTags...)
	out := make(map[string]bool)
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if d.Name() == "testdata" {
				return fs.SkipDir
			}
			pkg, err := ctx.ImportDir(path, 0)
			if err != nil {
				if _, ok := err.(*build.NoGoError); ok {
					return nil
				}
				return err
			}
			for _, name := range pkg.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.ParseComments)
				if err != nil {
					return err
				}
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Doc == nil {
						continue
					}
					for _, c := range fd.Doc.List {
						if c.Text == "//microrec:noalloc" {
							out[funcKey(path, fd)] = true
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func funcKey(dir string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if recv := recvTypeName(fd.Recv.List[0].Type); recv != "" {
			name = recv + "." + name
		}
	}
	return filepath.ToSlash(dir) + "." + name
}

func recvTypeName(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.IndexListExpr:
			e = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}
