package ring

// MustPlan is NewPlan but panics on error: the constructor the tests of
// both ring and ring_test build fixtures with.
func MustPlan[T any, R Ring[T]](r R, n int) *Plan[T, R] {
	p, err := NewPlan[T, R](r, n)
	if err != nil {
		panic(err)
	}
	return p
}

// TagElementOnly marks a plan built over ElementOnly (kernel seam
// disabled); it must never share a cache entry with the kernel plan.
const TagElementOnly uint32 = 1 << 15

// ElementOnly wraps a ring and hides any SpanKernels implementation it
// has, forcing a Plan built over it onto the element-op fallback path.
// It exists for differential testing: the element-op path is the reference
// every span kernel is checked against.
type ElementOnly[T any] struct{ Ring[T] }

// Fingerprint tags the wrapped fingerprint so an element-only plan never
// shares a cache entry with the kernel plan for the same modulus.
func (e ElementOnly[T]) Fingerprint() Fingerprint {
	fp := e.Ring.Fingerprint()
	fp.Tag |= TagElementOnly
	return fp
}
