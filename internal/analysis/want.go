package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// TB is the subset of *testing.T the fixture harness needs; declared here so
// the harness can live in the non-test build without importing testing.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunWant loads the fixture package at pkgdir (relative to the calling
// test's working directory, conventionally testdata/src/<name>) in the build
// the tags select, runs the analyzers over it, and diffs the diagnostics
// against `// want "regexp"` comments in the fixture: every want must be matched by a diagnostic on its
// line, and every diagnostic must match a want. This is the analysistest
// contract, so fixtures carry both flagged variants (with wants) and
// accepted variants (without) of each bug class. Only the analyzers' tests
// call it, from their own packages, so deadexport is allowed on it.
func RunWant(t TB, analyzers []*Analyzer, pkgdir string, tags ...string) { //microrec:allow deadexport
	t.Helper()
	prog, err := Load(".", tags, "./"+strings.TrimPrefix(pkgdir, "./"))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgdir, err)
	}
	diags, err := Run(prog, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", pkgdir, err)
	}

	type want struct {
		rx      *regexp.Regexp
		raw     string
		matched bool
	}
	wants := make(map[lineKey][]*want)
	// Only fixture-package files carry expectations; dependencies (if the
	// fixture ever grows any) are not scanned.
	fixture := prog.Packages[len(prog.Packages)-1]
	for _, f := range fixture.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				for _, raw := range splitQuoted(text) {
					pat, err := strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, raw, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants[k] = append(wants[k], &want{rx: rx, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		var hit bool
		for _, w := range wants[k] {
			if w.rx.MatchString(d.Message) {
				w.matched = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", pos.Filename, pos.Line, d.Analyzer.Name, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %s, got none", k.file, k.line, w.raw)
			}
		}
	}
}

// splitQuoted extracts the sequence of double-quoted strings from a want
// comment's tail, honoring backslash escapes inside them.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		if s[i] != '"' {
			continue
		}
		j := i + 1
		for j < len(s) {
			if s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == '"' {
				break
			}
			j++
		}
		if j >= len(s) {
			break
		}
		out = append(out, s[i:j+1])
		i = j
	}
	if len(out) == 0 {
		// Malformed want comment: surface it as an impossible pattern so the
		// harness reports it rather than silently ignoring the expectation.
		out = append(out, fmt.Sprintf("%q", "malformed want: "+s))
	}
	return out
}
