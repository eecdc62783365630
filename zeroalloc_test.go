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
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
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
	"microrec/internal/pipeline"
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
		q := make(embedding.Query, len(spec.Tables))
		for ti, tab := range spec.Tables {
			idxs := make([]int64, tab.Lookups)
			for k := range idxs {
				idxs[k] = rng.Int63n(tab.Rows)
			}
			q[ti] = idxs
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

	tables := make([]int, len(eng.Spec().Tables))
	for i := range tables {
		tables[i] = i
	}
	var partialScratch core.BatchScratch
	eng.EnsurePlane(&partialScratch, b)

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

	done := make(chan struct{}, 1)
	x, err := pipeline.New(eng, pipeline.Options{
		Depth:    3,
		MaxBatch: 16,
		Deliver:  func(payload interface{}, preds []float32) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	pipeQs := allocQueries(spec, 16, 5)
	payload := new(int)

	k16, k32 := newKernelFixture[int16](), newKernelFixture[int32]()
	quant := kernels.NewQuantizer(fixedpoint.Fixed16)
	finish := fixedpoint.Fixed16.Epilogue()
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

	return []allocCase{
		{
			name: "core/gather",
			covers: []string{
				"internal/core.Engine.GatherIntoPlane",
				"internal/core.fixedPath.gatherTables",
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
			name: "core/partial-gather",
			covers: []string{
				"internal/core.Engine.GatherPartialIntoPlane",
				"internal/core.Engine.ZeroDenseTail",
				"internal/core.fixedPath.zeroDenseTail",
			},
			run: func() {
				eng.GatherPartialIntoPlane(tables, qs, &partialScratch)
				eng.ZeroDenseTail(b, &partialScratch)
			},
		},
		{
			name: "pipeline/round-trip",
			covers: []string{
				"internal/pipeline.Executor.gatherLoop",
				"internal/pipeline.Executor.denseLoop",
				"internal/pipeline.Executor.tailLoop",
			},
			run: func() {
				x.SubmitOn(<-x.Free(), pipeQs, payload)
				<-done
			},
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
				"internal/kernels.QuantizeRowRef",
				"internal/kernels.QuantizeRow",
				"internal/kernels.UnitFloatsRef",
				"internal/kernels.UnitFloats",
				"internal/kernels.PrefetchRow",
				"internal/kernels.PrefetchRows",
				"internal/fixedpoint.FinishRow",
			},
			run: func() {
				kernels.GemmRef(k16.x, k16.acc, k16.b, k16.stride, &k16.w)
				kernels.GemmRef(k32.x, k32.acc, k32.b, k32.stride, &k32.w)
				kernels.QuantizeRowRef(fixedpoint.Fixed16, qsrc, qdst)
				kernels.QuantizeRow(&quant, qsrc, qdst)
				kernels.UnitFloatsRef(unitDraws, 1, qsrc[:len(unitDraws)])
				kernels.UnitFloats(unitDraws, 1, qsrc[:len(unitDraws)])
				kernels.PrefetchRow(qsrc)
				kernels.PrefetchRows(qsrc, 12, hintRows[:])
				fixedpoint.FinishRow(&finish, k16.acc[:k16.w.Out], k16.acc[:k16.w.Out], true, k16.x)
			},
		},
	}
}

// kernelFixture is one small packed layer and plane pair at element type T,
// shared by the reference row above and the per-implementation rows in
// zeroalloc_amd64_test.go. The shape is ragged on purpose (rows past one
// four-row tile, in past one 512-bit vector, out past one 4-output group).
type kernelFixture[T kernels.Elem] struct {
	b, stride int
	x         []T
	acc       []int64
	w         kernels.Weights[T]
}

func newKernelFixture[T kernels.Elem]() *kernelFixture[T] {
	const b, in, out = 5, 35, 6
	k := &kernelFixture[T]{b: b, w: kernels.Pack(in, out, func(i, j int) T { return T((i+j)%5 - 2) })}
	k.stride = max(k.w.InP, k.w.OutP)
	k.x = make([]T, b*k.stride)
	k.acc = make([]int64, b*k.stride)
	for i := range k.x {
		k.x[i] = T(i%7 - 3)
	}
	return k
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
