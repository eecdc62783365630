// Package deadexport reports exported package-level functions and exported
// methods under internal/ that no non-test file of the loaded program
// references. An internal package's exports are reachable only from inside
// the module, so one that only its own tests call is dead code kept alive by
// its tests: the tree regrows such helpers one refactor at a time, and every
// one of them is a line a reader has to rule out.
//
// The collect phase records every function and method object any non-test
// file uses (the loader parses no test files): a call, a function or method
// value, a method expression. A method is also live when its type (T or *T)
// implements an interface whose method of the same name some non-test file
// uses, or implements an interface declared outside the module (error,
// fmt.Stringer, json.Marshaler, ...): the standard library calls those
// through assertions the loader never sees, so every interface in the scope
// of an imported non-module package counts. The report phase flags each
// exported function or method declared under internal/ that none of this
// marks. The check is whole-program, so it means something only when run
// over every package that could call in (microrec-vet ./...). A deliberate
// exception, such as a helper that only tests in other packages call, is
// suppressed with //microrec:allow deadexport on the reported line and a
// comment saying why.
package deadexport

import (
	"go/types"
	"strings"

	"microrec/internal/analysis"
)

// Analyzer is the deadexport analysis.
var Analyzer = &analysis.Analyzer{
	Name:    "deadexport",
	Doc:     "reports exported functions and methods under internal/ that no non-test file references",
	Run:     collect,
	RunPost: report,
}

type used struct{}

// program is what collect gathers across every package for the interface
// rules, which report resolves once before its first package.
type program struct {
	pkgs     []*types.Package
	concrete []*types.Named       // the module's method-bearing types, generic ones as instantiated
	calls    map[*types.Func]bool // interface methods some non-test file uses
	resolved bool
}

// collect marks every function and method the package's files refer to, and
// records the package's named types and the interface methods it uses.
func collect(pass *analysis.Pass) error {
	prog := programOf(pass)
	prog.pkgs = append(prog.pkgs, pass.Pkg)
	for _, obj := range pass.Info.Uses {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		pass.SetObjectFact(f.Origin(), used{})
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			prog.calls[f] = true
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
				prog.concrete = append(prog.concrete, n)
			}
		}
	}
	for _, inst := range pass.Info.Instances {
		if n, ok := inst.Type.(*types.Named); ok && n.Obj().Pkg() == pass.Pkg {
			prog.concrete = append(prog.concrete, n)
		}
	}
	return nil
}

func programOf(pass *analysis.Pass) *program {
	shared := pass.Shared()
	prog, ok := shared["program"].(*program)
	if !ok {
		prog = &program{calls: make(map[*types.Func]bool)}
		shared["program"] = prog
	}
	return prog
}

// resolve marks the methods the interface rules keep live: for each module
// type and each interface its pointer type implements, the type's methods
// of the interface's used method names, or all of them for an interface
// declared outside the module.
func (prog *program) resolve(pass *analysis.Pass) {
	byName := make(map[string][]*types.Interface) // method name → interfaces that declare it
	live := make(map[*types.Interface]map[string]bool)
	add := func(iface *types.Interface, name string) {
		if live[iface] == nil {
			live[iface] = make(map[string]bool)
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i).Name()
				byName[m] = append(byName[m], iface)
			}
		}
		live[iface][name] = true
	}
	for f := range prog.calls {
		add(f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface), f.Name())
	}
	for _, iface := range externalInterfaces(prog.pkgs) {
		for i := 0; i < iface.NumMethods(); i++ {
			add(iface, iface.Method(i).Name())
		}
	}

	for _, n := range prog.concrete {
		if types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		checked := make(map[*types.Interface]bool)
		for i := 0; i < mset.Len(); i++ {
			for _, iface := range byName[mset.At(i).Obj().Name()] {
				if checked[iface] {
					continue
				}
				checked[iface] = true
				if !types.Implements(ptr, iface) {
					continue
				}
				for name := range live[iface] {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, n.Obj().Pkg(), name)
					if m, ok := obj.(*types.Func); ok {
						pass.SetObjectFact(m.Origin(), used{})
					}
				}
			}
		}
	}
}

// externalInterfaces returns error and every method-set interface declared
// in the scope of a package the module imports, directly or not, that is
// not itself a module package.
func externalInterfaces(module []*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	for _, p := range module {
		seen[p] = true
	}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() != nil {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 {
					out = append(out, iface)
				}
			}
			walk(imp)
		}
	}
	for _, p := range module {
		walk(p)
	}
	return out
}

// report flags the exported functions and methods of an internal package
// that nothing marked as used.
func report(pass *analysis.Pass) error {
	if prog := programOf(pass); !prog.resolved {
		prog.resolved = true
		prog.resolve(pass)
	}
	if !strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/") {
		return nil
	}
	for _, fd := range analysis.FuncsOf(pass.Files) {
		if !fd.Name.IsExported() {
			continue
		}
		obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		if _, ok := pass.ObjectFact(obj); ok {
			continue
		}
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			pass.Reportf(fd.Name.Pos(), "exported method %s.%s has no non-test reference in the loaded program", recvName(recv.Type()), fd.Name.Name)
		} else {
			pass.Reportf(fd.Name.Pos(), "exported function %s has no non-test reference in the loaded program", fd.Name.Name)
		}
	}
	return nil
}

// recvName is the name of a method's receiver base type.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
