package deadexport_test

import (
	"testing"

	"microrec/internal/analysis"
	"microrec/internal/analysis/deadexport"
)

func TestDeadexport(t *testing.T) {
	analysis.RunWant(t, []*analysis.Analyzer{deadexport.Analyzer}, "testdata/src/a")
}

// TestDeadexportCrossPackage: a reference from an importing package keeps an
// export live, and the dependency's exports are judged with the importer's
// uses in hand.
func TestDeadexportCrossPackage(t *testing.T) {
	analysis.RunWant(t, []*analysis.Analyzer{deadexport.Analyzer}, "testdata/src/b")
}
