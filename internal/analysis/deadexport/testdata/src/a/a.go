// Package a is the deadexport fixture: an internal package (its import path
// runs through internal/) with one export its own code calls, one that only
// its test calls, and the shapes the analyzer must leave alone.
package a

// Used is called by total below, so it is live.
func Used() int { return 1 }

// Unused is called only by a_test.go, which the loader never parses.
func Unused() int { return 2 } // want "exported function Unused has no non-test reference"

// Generic is live through an instantiation, which names the instance, not
// the generic function itself.
func Generic[T any](v T) T { return v }

// Allowed is dead but carries the escape hatch.
func Allowed() {} //microrec:allow deadexport

// T's method is out of scope: an interface may require it unnamed.
type T struct{}

// Method has no caller and is not reported.
func (T) Method() {}

// helper is unexported: the compiler's unused checks are not this one's job.
func helper() {}

var total = Used() + Generic[int](3)
