package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one module package loaded from source with full type
// information.
type Package struct {
	PkgPath string
	Dir     string
	Files   []string // absolute paths, parse order matches Syntax
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info

	imports   []string
	importMap map[string]string
}

// Program is a set of module packages sharing one FileSet and one
// type-checker universe, plus the export data needed to import everything
// outside the module.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // dependency order: imports precede importers
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
	ForTest    string
	DepOnly    bool
}

// Load enumerates the packages matching patterns (relative patterns resolve
// against dir) in the build the tags select (none: the default build),
// compiles export data for every dependency, and type-checks each module
// package from source in dependency order. Only the files that build
// compiles are loaded, so a file behind a build tag is analysed only in a
// load that sets it. Packages outside the module (the standard library) are
// imported from export data; packages inside it are always built from source
// so that types.Object identities — and therefore analyzer facts — are
// consistent program-wide.
func Load(dir string, tags []string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-export", "-json", "-deps"}
	if len(tags) > 0 {
		args = append(args, "-tags="+strings.Join(tags, ","))
	}
	args = append(append(args, "--"), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list failed: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	byPath := make(map[string]*listPkg)
	var order []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: package %s: %s", p.ImportPath, p.Error.Err)
		}
		q := p
		byPath[p.ImportPath] = &q
		order = append(order, p.ImportPath)
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	// One gc-export-data importer serves every stdlib import in the run, so
	// repeated imports resolve to the same *types.Package.
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	inModule := func(p *listPkg) bool { return p.Module != nil }

	// Topologically sort module packages: dependencies first.
	var modPaths []string
	for _, path := range order {
		if inModule(byPath[path]) {
			modPaths = append(modPaths, path)
		}
	}
	sort.Strings(modPaths)
	var topo []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		p := byPath[path]
		for _, imp := range p.Imports {
			if r, ok := p.ImportMap[imp]; ok {
				imp = r
			}
			if dep, ok := byPath[imp]; ok && inModule(dep) {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		topo = append(topo, path)
		return nil
	}
	for _, path := range modPaths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}

	prog := &Program{Fset: fset}
	checked := make(map[string]*types.Package)
	for _, path := range topo {
		lp := byPath[path]
		pkg := &Package{
			PkgPath:   path,
			Dir:       lp.Dir,
			imports:   lp.Imports,
			importMap: lp.ImportMap,
		}
		for _, gf := range lp.GoFiles {
			abs := filepath.Join(lp.Dir, gf)
			f, err := parser.ParseFile(fset, abs, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: parsing %s: %v", abs, err)
			}
			pkg.Files = append(pkg.Files, abs)
			pkg.Syntax = append(pkg.Syntax, f)
		}
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{
			Importer: &progImporter{
				importMap: lp.ImportMap,
				checked:   checked,
				std:       stdImporter,
			},
		}
		tpkg, err := conf.Check(path, fset, pkg.Syntax, pkg.Info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
		}
		pkg.Types = tpkg
		checked[path] = tpkg
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// progImporter resolves one package's imports: module packages come from the
// source-checked set, everything else from shared export data. The per-
// package ImportMap handles vendored stdlib paths.
type progImporter struct {
	importMap map[string]string
	checked   map[string]*types.Package
	std       types.Importer
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if r, ok := pi.importMap[path]; ok {
		path = r
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := pi.checked[path]; ok {
		return p, nil
	}
	return pi.std.Import(path)
}
