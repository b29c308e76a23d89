package core

import (
	"mqxgo/internal/isa"
	"mqxgo/internal/kernels"
	"mqxgo/internal/modmath"
	"mqxgo/internal/perfmodel"
)

// RNSCompareRow contrasts two ways of carrying ~120-bit coefficients
// through an NTT butterfly on the same hardware (the paper's Section 1
// trade-off): one 124-bit double-word channel vs. two 60-bit RNS channels.
type RNSCompareRow struct {
	Machine string
	Level   isa.Level

	// DoubleWordNs is the modeled per-butterfly time of the 128-bit kernel.
	DoubleWordNs float64
	// RNSNs is the modeled per-logical-butterfly time of the RNS pipeline:
	// two independent 64-bit channel butterflies.
	RNSNs float64
	// Ratio is DoubleWordNs / RNSNs (>1 means RNS kernels are faster at
	// equal payload; the paper's case for 128-bit residues rests on the
	// application-level conversion costs RNS adds, not on kernel time).
	Ratio float64
}

// RNSChannels is how many 60-bit channels match the 124-bit double-word
// payload.
const RNSChannels = 2

// CompareRNS models the kernel-level comparison at NTT size n for the
// standard tiers on both machines.
func CompareRNS(mod *modmath.Modulus128, n int) ([]RNSCompareRow, error) {
	ps, err := modmath.FindNTTPrimes64(60, 1<<18, 1)
	if err != nil {
		return nil, err
	}
	mod64 := modmath.MustModulus64(ps[0])

	var rows []RNSCompareRow
	for _, mach := range perfmodel.MeasurementMachines {
		for _, level := range isa.AllLevels {
			dw := perfmodel.NewNTTModel(
				perfmodel.NewKernelModel(mach, perfmodel.ButterflyBody(level, mod, kernels.Schoolbook)), n)
			sw := perfmodel.NewNTTModel(
				perfmodel.NewKernelModel(mach, perfmodel.SWButterflyBody(level, mod64)), n)
			dwNs := dw.NsPerButterfly()
			rnsNs := RNSChannels * sw.NsPerButterfly()
			rows = append(rows, RNSCompareRow{
				Machine:      mach.Name,
				Level:        level,
				DoubleWordNs: dwNs,
				RNSNs:        rnsNs,
				Ratio:        dwNs / rnsNs,
			})
		}
	}
	return rows, nil
}
