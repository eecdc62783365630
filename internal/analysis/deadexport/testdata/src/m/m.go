// Package m is the method fixture of deadexport: one method for each way a
// non-test file can keep a method live, and the shapes it must report.
package m

import (
	"fmt"
	"sync"
)

// T carries the directly used methods.
type T struct{}

// Called is live through a call.
func (T) Called() int { return 1 }

// Value is live through a method value.
func (T) Value() int { return 2 }

// Expr is live through a method expression.
func (T) Expr() int { return 3 }

// Dead is referenced by nothing.
func (T) Dead() {} // want "exported method T.Dead has no non-test reference"

// Allowed is dead but carries the escape hatch.
func (T) Allowed() {} //microrec:allow deadexport

// Inner's method is promoted through Outer's embedded field.
type Inner struct{}

// Promoted is live through a call on Outer.
func (Inner) Promoted() int { return 4 }

// Outer embeds Inner.
type Outer struct{ Inner }

// G is generic; its method is live through a call on an instance.
type G[E any] struct{ v E }

// Get is live through G[int].
func (g G[E]) Get() E { return g.v }

// Sizer is a module interface whose method a non-test file calls.
type Sizer interface{ Size() int }

// Box implements Sizer and is used only through it.
type Box struct{}

// Size is live: Box implements Sizer and Sizer.Size is called.
func (Box) Size() int { return 5 }

// Resetter is a module interface nobody calls.
type Resetter interface{ Reset() }

// Reset implements Resetter, but nothing calls Resetter.Reset.
func (*Box) Reset() {} // want "exported method Box.Reset has no non-test reference"

// Name implements fmt.Stringer: fmt calls it through an assertion.
type Name string

// String is live through fmt.Stringer.
func (n Name) String() string { return string(n) }

// Fault implements error.
type Fault struct{}

// Error is live through error.
func (Fault) Error() string { return "fault" }

// Guard implements sync.Locker.
type Guard struct{ mu sync.Mutex }

// Lock is live through sync.Locker.
func (g *Guard) Lock() { g.mu.Lock() }

// Unlock is live through sync.Locker.
func (g *Guard) Unlock() { g.mu.Unlock() }

func size(s Sizer) int { return s.Size() }

var (
	t     T
	value = t.Value
	total = t.Called() + value() + T.Expr(t) + Outer{}.Promoted() + G[int]{v: 6}.Get() + size(Box{})
	_     = fmt.Sprint(Name("n"), Fault{}, total)
)
