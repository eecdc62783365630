// Package tagged is hotalloc's build-tag fixture: the default build has only
// this file, and the noasm build adds tagged_noasm.go, whose annotated
// function allocates.
package tagged

//microrec:noalloc
func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}
