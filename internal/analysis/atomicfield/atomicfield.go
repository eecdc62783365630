// Package atomicfield enforces all-or-nothing atomicity on struct fields:
// a field that is accessed through sync/atomic anywhere in the program must
// never be read or written plainly anywhere else. A single plain load
// against a field that racing writers update atomically is a data race the
// race detector only catches when the interleaving cooperates — torn
// hit/miss counters in a hot-row cache's stats snapshot were exactly this
// class.
//
// Two shapes are checked:
//
//   - Old-style fields (plain int64/uint64/pointer passed to atomic.AddX,
//     LoadX, StoreX, SwapX, CompareAndSwapX): the collect phase records
//     every field whose address reaches such a call; the report phase then
//     flags every other selector touching that field. Composite-literal
//     keys are exempt (pre-publication initialization).
//   - Typed atomics (atomic.Int64, atomic.Uint64, atomic.Pointer[T], ...):
//     plain access is only expressible by copying the struct, so any use of
//     such a field other than a method call or taking its address is
//     flagged.
//
// The tree itself uses typed atomics exclusively; the old-style rule exists
// because one regressed call site is all it takes to reintroduce the class.
package atomicfield

import (
	"go/ast"
	"go/types"
	"strings"

	"microrec/internal/analysis"
)

// Analyzer is the atomicfield analysis.
var Analyzer = &analysis.Analyzer{
	Name:    "atomicfield",
	Doc:     "reports plain accesses to struct fields that are accessed atomically elsewhere",
	Run:     collect,
	RunPost: report,
}

// collect records, program-wide, every field whose address is passed to a
// sync/atomic function, and sanctions those call sites so the report phase
// does not flag them. It also performs the (purely local) typed-atomic
// misuse check.
func collect(pass *analysis.Pass) error {
	shared := pass.Shared()
	fields, _ := shared["fields"].(map[*types.Var]bool)
	if fields == nil {
		fields = make(map[*types.Var]bool)
		shared["fields"] = fields
	}
	sanctioned, _ := shared["sanctioned"].(map[*ast.SelectorExpr]bool)
	if sanctioned == nil {
		sanctioned = make(map[*ast.SelectorExpr]bool)
		shared["sanctioned"] = sanctioned
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if !isAtomicCall(pass, x) || len(x.Args) == 0 {
					return true
				}
				un, ok := ast.Unparen(x.Args[0]).(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					return true
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fv := fieldOf(pass, sel); fv != nil {
					fields[fv] = true
					sanctioned[sel] = true
				}
			case *ast.SelectorExpr:
				checkTypedAtomic(pass, f, x)
			}
			return true
		})
	}
	return nil
}

// report flags plain accesses to collected fields; it runs after every
// package's collect, so a field made atomic in one package poisons plain
// accesses in all of them.
func report(pass *analysis.Pass) error {
	shared := pass.Shared()
	fields, _ := shared["fields"].(map[*types.Var]bool)
	sanctioned, _ := shared["sanctioned"].(map[*ast.SelectorExpr]bool)
	if len(fields) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			fv := fieldOf(pass, sel)
			if fv == nil || !fields[fv] {
				return true
			}
			pass.Reportf(sel.Sel.Pos(), "field %s is accessed with sync/atomic elsewhere; non-atomic access", fv.Name())
			return true
		})
	}
	return nil
}

// checkTypedAtomic flags uses of a typed-atomic field (atomic.Int64 etc.)
// that are neither a method call nor an address-of — i.e. copies.
func checkTypedAtomic(pass *analysis.Pass, file *ast.File, sel *ast.SelectorExpr) {
	// Only the INNER selector (s.ctr) matters; s.ctr.Load resolves the
	// outer selector to a method, which fieldOf rejects.
	fv := fieldOf(pass, sel)
	if fv == nil || !isTypedAtomic(fv.Type()) {
		return
	}
	if ok := usedSafely(file, sel); !ok {
		pass.Reportf(sel.Sel.Pos(), "typed atomic field %s copied or accessed non-atomically (use its methods or take its address)", fv.Name())
	}
}

// usedSafely reports whether sel's immediate parent is a method selector or
// an address-of operation.
func usedSafely(file *ast.File, sel *ast.SelectorExpr) bool {
	safe := false
	ast.Inspect(file, func(n ast.Node) bool {
		if safe {
			return false
		}
		switch p := n.(type) {
		case *ast.SelectorExpr:
			if ast.Unparen(p.X) == sel {
				safe = true
				return false
			}
		case *ast.UnaryExpr:
			if p.Op.String() == "&" && ast.Unparen(p.X) == sel {
				safe = true
				return false
			}
		}
		return true
	})
	return safe
}

// fieldOf resolves a selector to the struct field it selects, or nil.
// Composite-literal keys resolve through Uses, not Selections, so they are
// naturally exempt here.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isAtomicCall reports whether the call invokes a sync/atomic package-level
// read-modify-write or load/store function.
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := analysis.CalleeFunc(pass.Info, call)
	if f == nil || analysis.FuncPkgPath(f) != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "Or", "And"} {
		if strings.HasPrefix(f.Name(), prefix) {
			return true
		}
	}
	return false
}

// isTypedAtomic reports whether t is one of sync/atomic's struct types
// (Int32, Int64, Uint32, Uint64, Uintptr, Bool, Value, Pointer[T]).
func isTypedAtomic(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
