// Quickstart: 128-bit modular arithmetic, an NTT round trip, and a
// performance projection in one sitting.
package main

import (
	"fmt"
	"log"

	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/u128"
)

func main() {
	// The library's default 124-bit NTT-friendly prime.
	mod := modmath.DefaultModulus128()
	fmt.Printf("modulus q = %s (%d bits)\n", mod.Q, mod.Q.BitLen())

	// Double-word modular arithmetic.
	a := u128.MustParse("12345678901234567890123456789012345678")
	b := u128.MustParse("98765432109876543210987654321098765432")
	a = a.Mod(mod.Q)
	b = b.Mod(mod.Q)
	fmt.Printf("a*b mod q = %s\n", mod.Mul(a, b))

	// An NTT round trip at size 1024, on the process-wide cached plan.
	n := 1024
	plan, err := ntt.CachedPlan(mod, n)
	if err != nil {
		log.Fatal(err)
	}
	x := make([]u128.U128, n)
	for i := range x {
		x[i] = u128.From64(uint64(i))
	}
	freq, back := make([]u128.U128, n), make([]u128.U128, n)
	plan.ForwardInto(freq, x)
	plan.InverseInto(back, freq)
	ok := true
	for i := range x {
		if !back[i].Equal(x[i]) {
			ok = false
			break
		}
	}
	fmt.Printf("INTT(NTT(x)) == x: %v\n", ok)

	// Projected single-core performance of this transform on the paper's
	// two machines, per ISA tier.
	for _, mach := range perfmodel.MeasurementMachines {
		fmt.Printf("\n%s, %d-point NTT (projected, single core):\n", mach.Name, n)
		for _, level := range isa.AllLevels {
			m := perfmodel.ProjectNTT(mach, level, mod, n)
			fmt.Printf("  %-8s %8.2f us  (%.2f ns/butterfly)\n",
				level, m.TimeNs()/1000, m.NsPerButterfly())
		}
	}
}
