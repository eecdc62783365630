// Package deadexport reports exported package-level functions under
// internal/ that no non-test file of the loaded program references. An
// internal package's exports are reachable only from inside the module, so
// one that only its own tests call is dead code kept alive by its tests: the
// tree regrows such helpers one refactor at a time, and every one of them is
// a line a reader has to rule out.
//
// The collect phase records every function object any non-test file uses
// (the loader parses no test files); the report phase flags each exported
// function declared under internal/ that was never recorded. Methods are out
// of scope: an interface can require one without naming it. The check is
// whole-program, so it means something only when run over every package
// that could call in (microrec-vet ./...). A deliberate exception, such as a
// helper that only tests in other packages call, is suppressed with
// //microrec:allow deadexport on the reported line and a comment saying why.
package deadexport

import (
	"go/types"
	"strings"

	"microrec/internal/analysis"
)

// Analyzer is the deadexport analysis.
var Analyzer = &analysis.Analyzer{
	Name:    "deadexport",
	Doc:     "reports exported functions under internal/ that no non-test file references",
	Run:     collect,
	RunPost: report,
}

type used struct{}

// collect marks every package-level function the package's files refer to.
func collect(pass *analysis.Pass) error {
	for _, obj := range pass.Info.Uses {
		if f, ok := obj.(*types.Func); ok {
			pass.SetObjectFact(f.Origin(), used{})
		}
	}
	return nil
}

// report flags the exported functions of an internal package that no
// package marked as used.
func report(pass *analysis.Pass) error {
	if !strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/") {
		return nil
	}
	for _, fd := range analysis.FuncsOf(pass.Files) {
		if fd.Recv != nil || !fd.Name.IsExported() {
			continue
		}
		obj := pass.Info.Defs[fd.Name]
		if obj == nil {
			continue
		}
		if _, ok := pass.ObjectFact(obj); !ok {
			pass.Reportf(fd.Name.Pos(), "exported function %s has no non-test reference in the loaded program", fd.Name.Name)
		}
	}
	return nil
}
