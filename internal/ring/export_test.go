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

// NTTModulus is nttModulus for the external tests.
var NTTModulus = nttModulus
