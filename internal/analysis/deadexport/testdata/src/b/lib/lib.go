// Package lib is the callee half of the cross-package deadexport fixture.
package lib

// Called has no caller in this package; package b's call keeps it live.
func Called() int { return 1 }

// Value is live through a function value taken in package b, not a call.
func Value() int { return 2 }
