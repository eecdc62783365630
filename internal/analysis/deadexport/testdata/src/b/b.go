// Package b is the cross-package deadexport fixture: references from an
// importing package count, whether a call or a function value.
package b

import "microrec/internal/analysis/deadexport/testdata/src/b/lib"

var f = lib.Value

// Sum is referenced by nothing, in this package or any other.
func Sum() int { return lib.Called() + f() } // want "exported function Sum has no non-test reference"
