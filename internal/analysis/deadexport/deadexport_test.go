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

// TestDeadexportMethods: a method is live through a call, a method value, a
// method expression, promotion through an embedded field, an instance of a
// generic receiver, a called method of a module interface it implements, or
// an interface declared outside the module (fmt.Stringer, error,
// sync.Locker); a module interface nobody calls keeps nothing live.
func TestDeadexportMethods(t *testing.T) {
	analysis.RunWant(t, []*analysis.Analyzer{deadexport.Analyzer}, "testdata/src/m")
}
