package microrec_test

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiGolden is the facade's exported surface, one identifier a line.
var apiGolden = filepath.Join("testdata", "api.golden")

// TestAPIGolden pins the facade's exported surface the way
// TestStatsJSONSchemaGolden pins /stats: every exported constant, variable,
// function, type (with its exported fields) and method of package microrec,
// rendered from go/doc, must match testdata/api.golden line for line. An
// addition is deliberate — extend the golden and say why in CHANGES.md; a
// removal is a break for every caller.
func TestAPIGolden(t *testing.T) {
	got := renderAPI(t)
	raw, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
		if !inWant[l] {
			t.Errorf("new or changed facade API %q: if intentional, add it to %s and say why in CHANGES.md", l, apiGolden)
		}
	}
	for _, l := range want {
		if !inGot[l] {
			t.Errorf("facade API %q disappeared or changed: callers of the facade break", l)
		}
	}
	if !t.Failed() {
		t.Errorf("%s is out of order; want:\n%s", apiGolden, strings.Join(got, "\n"))
	}
}

// renderAPI renders the facade package's exported declarations, sorted, one
// a line: each const and var with its value, each func and method with its
// signature, each type with its definition on one line.
func renderAPI(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["microrec"]
	if !ok {
		t.Fatal("no package microrec in the repository root")
	}
	d := doc.New(pkg, "microrec", 0)
	render := func(node any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var lines []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !name.IsExported() {
						continue
					}
					l := kind + " " + name.Name
					if vs.Type != nil {
						l += " " + render(vs.Type)
					}
					if i < len(vs.Values) {
						l += " = " + render(vs.Values[i])
					}
					lines = append(lines, l)
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			decl := *f.Decl
			decl.Doc, decl.Body = nil, nil
			lines = append(lines, render(&decl))
		}
	}
	values("const", d.Consts)
	values("var", d.Vars)
	funcs(d.Funcs)
	for _, typ := range d.Types {
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
		for _, spec := range typ.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				ts := *ts
				ts.Doc, ts.Comment = nil, nil
				lines = append(lines, "type "+render(&ts))
				continue
			}
			fields := make([]string, len(st.Fields.List))
			for i, f := range st.Fields.List {
				names := make([]string, len(f.Names))
				for j, n := range f.Names {
					names[j] = n.Name
				}
				fields[i] = strings.TrimSpace(strings.Join(names, ", ") + " " + render(f.Type))
			}
			lines = append(lines, "type "+ts.Name.Name+" struct { "+strings.Join(fields, "; ")+" }")
		}
	}
	sort.Slice(lines, func(i, j int) bool { return apiKey(lines[i]) < apiKey(lines[j]) })
	return lines
}

// apiKey sorts a rendered line by the identifier it declares (a method by
// its receiver's type, then its name), then by the line.
func apiKey(l string) string {
	kind, rest, _ := strings.Cut(l, " ")
	if kind == "func" && strings.HasPrefix(rest, "(") {
		recv, name, _ := strings.Cut(rest[1:], ")")
		recv = strings.TrimPrefix(recv[strings.LastIndex(recv, " ")+1:], "*")
		return recv + "." + strings.TrimSpace(name) + "\x00" + l
	}
	return rest + "\x00" + l
}
