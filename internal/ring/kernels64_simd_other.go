//go:build !amd64

package ring

// selectKernels on non-amd64 builds keeps the fused scalar Go kernels:
// there is no assembly tier to substitute.
func (r Shoup64) selectKernels() (SpanKernels[uint64], KernelTier, bool) {
	return r, TierScalar, true
}
