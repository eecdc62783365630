//go:build noasm

package tagged

//microrec:noalloc
func scratch(n int) []int64 {
	return make([]int64, n) // want "make allocates in noalloc function scratch"
}
