// Package hotalloc enforces the //microrec:noalloc annotation: a function so
// marked is part of the steady-state datapath (the gather row loop, the
// GEMM, the span recorder) and must not contain an allocating construct.
// The repo's zero-alloc claims were previously guarded only by scattered
// testing.AllocsPerRun pins; this analyzer catches the construct at review
// time and names it, and the consolidated zeroalloc test (zeroalloc_test.go
// at the repo root) keeps the dynamic side honest.
//
// Flagged constructs: make/new/append, map and slice literals, &composite
// literals, function literals (closure capture), go statements, string
// concatenation, string<->[]byte/[]rune conversions, explicit and implicit
// interface conversions of non-pointer-shaped values (boxing), and calls
// into fmt/errors/log. Taking the address of a variable, value struct
// literals, slicing, type assertions, and channel operations are allowed —
// none of them allocate by themselves.
//
// The check is syntactic over the annotated body only; callees are covered
// dynamically by the consolidated AllocsPerRun table, which derives its
// required coverage from the same annotations.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"microrec/internal/analysis"
)

// Directive is the annotation marking a function as alloc-free.
const Directive = "//microrec:noalloc"

// Analyzer is the hotalloc analysis.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "reports allocating constructs inside //microrec:noalloc functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, fd := range analysis.FuncsOf(pass.Files) {
		if fd.Body == nil || !analysis.HasDirective(fd.Doc, Directive) {
			continue
		}
		checkFunc(pass, fd)
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "function literal (closure) in noalloc function %s", fd.Name.Name)
			return false // the literal's own body runs elsewhere

		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "go statement in noalloc function %s", fd.Name.Name)

		case *ast.CompositeLit:
			switch pass.TypeOf(x).Underlying().(type) {
			case *types.Map:
				pass.Reportf(x.Pos(), "map literal allocates in noalloc function %s", fd.Name.Name)
			case *types.Slice:
				pass.Reportf(x.Pos(), "slice literal allocates in noalloc function %s", fd.Name.Name)
			}

		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					pass.Reportf(x.Pos(), "&composite literal escapes to heap in noalloc function %s", fd.Name.Name)
				}
			}

		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(pass.TypeOf(x)) {
				pass.Reportf(x.Pos(), "string concatenation allocates in noalloc function %s", fd.Name.Name)
			}

		case *ast.CallExpr:
			checkCall(pass, fd, x)

		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Rhs {
					checkConversion(pass, fd, x.Rhs[i].Pos(), pass.TypeOf(x.Rhs[i]), pass.TypeOf(x.Lhs[i]), "assignment")
				}
			}

		case *ast.ReturnStmt:
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return true
			}
			results := obj.Type().(*types.Signature).Results()
			if len(x.Results) == results.Len() {
				for i, r := range x.Results {
					checkConversion(pass, fd, r.Pos(), pass.TypeOf(r), results.At(i).Type(), "return")
				}
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "%s allocates in noalloc function %s", b.Name(), fd.Name.Name)
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) == 1 {
			src := pass.TypeOf(call.Args[0])
			checkConversion(pass, fd, call.Pos(), src, dst, "conversion")
		}
		return
	}

	// fmt/errors/log allocate (boxing, buffers, error values).
	if f := analysis.CalleeFunc(pass.Info, call); f != nil {
		switch analysis.FuncPkgPath(f) {
		case "fmt", "errors", "log":
			pass.Reportf(call.Pos(), "call to %s allocates in noalloc function %s", f.FullName(), fd.Name.Name)
			return
		}
	}

	// Implicit interface conversions at the call boundary box their
	// operands.
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkConversion(pass, fd, arg.Pos(), pass.TypeOf(arg), pt, "argument")
	}
}

// checkConversion reports conversions that allocate: boxing a non-pointer-
// shaped value into an interface, and string<->byte/rune-slice copies.
func checkConversion(pass *analysis.Pass, fd *ast.FuncDecl, pos token.Pos, src, dst types.Type, what string) {
	if src == nil || dst == nil {
		return
	}
	// A type parameter's underlying type is its constraint interface, but a
	// value of that type is stored at the instantiated width, not boxed.
	if _, generic := dst.(*types.TypeParam); generic {
		return
	}
	if types.IsInterface(dst) && !types.IsInterface(src) && boxingAllocates(src) {
		pass.Reportf(pos, "%s boxes %s into interface in noalloc function %s", what, src.String(), fd.Name.Name)
		return
	}
	sb, db := src.Underlying(), dst.Underlying()
	if isString(sb) && isByteOrRuneSlice(db) || isByteOrRuneSlice(sb) && isString(db) {
		pass.Reportf(pos, "string %s copies in noalloc function %s", what, fd.Name.Name)
	}
}

// boxingAllocates reports whether storing a value of type t in an interface
// heap-allocates: pointer-shaped types (pointers, channels, maps, funcs,
// unsafe.Pointer) fit the interface data word directly; everything else is
// copied to the heap. Untyped nil never allocates.
func boxingAllocates(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UnsafePointer, types.UntypedNil:
			return false
		}
	}
	return true
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
