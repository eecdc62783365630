package microrec_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// importsGolden is the module's package graph, one in-module import edge a
// line.
var importsGolden = filepath.Join("testdata", "imports.golden")

// TestImportsGolden pins module microrec's package graph the way
// TestAPIGolden pins the facade: every in-module import edge of a non-test
// file, under every build tag, must match testdata/imports.golden line for
// line. A new edge is deliberate — add it to the golden and say why in
// CHANGES.md. The same graph then keeps the serving stack independent of the
// offline models: serving never reaches internal/experiments, where the CPU
// baseline's batching-queue model lives.
func TestImportsGolden(t *testing.T) {
	graph := importGraph(t)
	var got []string
	for from, tos := range graph {
		for to := range tos {
			got = append(got, from+" -> "+to)
		}
	}
	sort.Strings(got)
	raw, err := os.ReadFile(importsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if !slices.Equal(got, want) {
		for _, l := range got {
			if !slices.Contains(want, l) {
				t.Errorf("new import edge %q: if intentional, add it to %s and say why in CHANGES.md", l, importsGolden)
			}
		}
		for _, l := range want {
			if !slices.Contains(got, l) {
				t.Errorf("import edge %q is gone: remove it from %s", l, importsGolden)
			}
		}
		t.Errorf("%s should read:\n%s", importsGolden, strings.Join(got, "\n"))
	}
	checkNoReach(t, graph, []string{"serving"}, "experiments", "")
}

// TestCoreAndServingDoNotReachTheAcceleratorModel pins the split between the
// CPU engine and the model of the FPGA it reproduces: neither internal/core
// nor internal/serving reaches, directly or transitively, internal/accel,
// which holds the accelerator model with its placement, Cartesian-product,
// memory and pipeline models. It reads the graph TestImportsGolden pins.
func TestCoreAndServingDoNotReachTheAcceleratorModel(t *testing.T) {
	checkNoReach(t, importGraph(t), []string{"core", "serving"}, "accel", "")
}

// TestOnlyTheTierReachesTheHotRowCache pins the one residency mechanism: the
// frequency window (internal/hotcache) is owned by the tiered store, so core,
// serving and router reach it only through internal/tieredstore.
// It reads the graph TestImportsGolden pins.
func TestOnlyTheTierReachesTheHotRowCache(t *testing.T) {
	checkNoReach(t, importGraph(t), []string{"core", "serving", "router"}, "hotcache", "tieredstore")
}

// checkNoReach fails t when a package in from reaches to in graph, directly
// or transitively, except through via when it is set (the walk records via
// but does not enter it). Paths are under microrec/internal/.
func checkNoReach(t *testing.T, graph map[string]map[string]bool, from []string, to, via string) {
	t.Helper()
	to = "microrec/internal/" + to
	if via != "" {
		via = "microrec/internal/" + via
	}
	for _, f := range from {
		f = "microrec/internal/" + f
		if _, ok := graph[f]; !ok {
			t.Fatalf("no package %s in the graph", f)
		}
		if chain := reachPath(graph, f, to, via); chain != nil {
			t.Errorf("%s reaches %s: %s", f, to, strings.Join(chain, " -> "))
		}
	}
}

// importGraph parses the imports of every non-test Go file of module
// microrec, whatever its build constraints, and returns each package's
// in-module imports. It skips what the go command skips (testdata, and
// directories named with a leading "." or "_") and nested modules
// (benchmark/).
func importGraph(t *testing.T) map[string]map[string]bool {
	t.Helper()
	graph := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := path.Join("microrec", filepath.ToSlash(filepath.Dir(p)))
		if graph[pkg] == nil {
			graph[pkg] = map[string]bool{}
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if ip == "microrec" || strings.HasPrefix(ip, "microrec/") {
				graph[pkg][ip] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// reachPath returns an import chain from one package to another, not
// entering via, or nil when there is none.
func reachPath(graph map[string]map[string]bool, from, to, via string) []string {
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if p == to {
			var chain []string
			for ; p != ""; p = parent[p] {
				chain = append(chain, p)
			}
			slices.Reverse(chain)
			return chain
		}
		if p == via {
			continue
		}
		for q := range graph[p] {
			if _, ok := parent[q]; !ok {
				parent[q] = p
				queue = append(queue, q)
			}
		}
	}
	return nil
}
