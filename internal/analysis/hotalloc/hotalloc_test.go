package hotalloc_test

import (
	"testing"

	"microrec/internal/analysis"
	"microrec/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysis.RunWant(t, []*analysis.Analyzer{hotalloc.Analyzer}, "testdata/src/a")
}

// TestHotallocTaggedFile checks that a load with build tags analyses the
// files behind them: the fixture's noasm file allocates in an annotated
// function, which the default load never sees and the noasm load reports.
func TestHotallocTaggedFile(t *testing.T) {
	const fixture = "./testdata/src/tagged"
	prog, err := analysis.Load(".", nil, fixture)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(prog, []*analysis.Analyzer{hotalloc.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if files := prog.Packages[len(prog.Packages)-1].Files; len(files) != 1 || len(diags) != 0 {
		t.Errorf("default build: loaded %v and reported %d findings, want tagged.go alone and none", files, len(diags))
	}
	analysis.RunWant(t, []*analysis.Analyzer{hotalloc.Analyzer}, fixture, "noasm")
}
