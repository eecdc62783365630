//go:build noasm

package kernels

// QuantizeRow under the noasm tag is the reference loop, so the portable
// build runs exactly the semantic definition.
//
//microrec:noalloc
func QuantizeRow[T Elem](q *Quantizer, src []float32, dst []T) {
	QuantizeRowRef(q.f, src, dst)
}
