// Command report prints the paper's whole evaluation in one run, in paper
// order: Tables 1 and 3–6, Listing 4, Figures 1 and 4–7, the Section 5.5
// sensitivity study, the RNS comparison and the headline speed-ups — the
// artifact-style "reproduce everything" entry point (Appendix A of the
// paper). Unless -skip-verify is given, every ISA tier's transform is first
// executed on the trace machine and checked against the native engine.
//
// Usage:
//
//	report [-measure] [-skip-verify]
//
// With -measure, the GMP and OpenFHE-backend anchors of Figures 1, 4 and 5
// and of the headline summary are re-measured on the host instead of using
// the recorded defaults (core.DefaultBaselineRatios).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/bits"
	"os"
	"strings"

	"mqxgo/internal/core"
	"mqxgo/internal/isa"
	"mqxgo/internal/modmath"
	"mqxgo/internal/perfmodel"
	"mqxgo/internal/pisa"
	"mqxgo/internal/roofline"
	"mqxgo/internal/sched"
)

func main() {
	measure := flag.Bool("measure", false, "re-measure baseline anchors on this host")
	skipVerify := flag.Bool("skip-verify", false, "skip the functional tier verification")
	flag.Parse()

	fmt.Println("=== mqxgo evaluation report ===")
	fmt.Println()
	ratios := core.DefaultBaselineRatios
	if *measure {
		r, err := core.MeasureNTTBaselineRatios(modmath.DefaultModulus128(), 1<<12)
		if err != nil {
			log.Fatal(err)
		}
		ratios = r
		fmt.Printf("[anchors] host-measured: OpenFHE-backend/scalar %.1fx, GMP/scalar %.1fx\n\n",
			ratios.GenericOverNative, ratios.BignumOverNative)
	}
	if err := run(os.Stdout, ratios, !*skipVerify); err != nil {
		log.Fatal(err)
	}
}

// run renders every section of the evaluation to w. ratios anchor the
// baseline series to the modeled scalar tier; verify checks every ISA tier
// against the native 2^12 transform before anything is printed.
func run(w io.Writer, ratios perfmodel.BaselineRatios, verify bool) error {
	mod := modmath.DefaultModulus128()
	if verify {
		if err := core.VerifyAllTiers(mod, 1<<12); err != nil {
			return err
		}
		fmt.Fprintln(w, "[verify] all ISA tiers bit-match the native 2^12 transform")
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "Table 1 — addition with carry, instruction counts per tier:")
	fmt.Fprintln(w, "  scalar: 1 instruction (ADC)")
	fmt.Fprintln(w, "  AVX-512: 5 instructions (add, masked add, 2 compares, mask or)")
	fmt.Fprintln(w, "  MQX: 1 instruction (vpadcq)")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Table 3 — Proxy instructions in AVX-512 for MQX performance projection")
	fmt.Fprintf(w, "%-16s %s\n", "MQX instruction", "AVX-512 proxy")
	for _, row := range pisa.ProxyTable() {
		fmt.Fprintf(w, "%-16s %s\n", row[0], row[1])
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Table 4 — modeled CPUs")
	fmt.Fprintf(w, "%-20s %8s %8s %8s %6s %10s\n", "machine", "base", "boost", "all-core", "cores", "L3")
	for _, m := range append(append([]*perfmodel.Machine{}, perfmodel.MeasurementMachines...),
		perfmodel.IntelXeon6980P, perfmodel.AMDEPYC9965S) {
		fmt.Fprintf(w, "%-20s %5.1fGHz %5.1fGHz %5.2fGHz %6d %7dMB\n",
			m.Name, m.BaseGHz, m.MaxGHz, m.BoostAllGHz, m.Cores, m.L3Bytes>>20)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Table 5 — Target and proxy instructions for validating PISA")
	fmt.Fprintf(w, "%-24s %s\n", "Target instruction", "Proxy instruction")
	for _, p := range isa.PISAValidationPairs {
		fmt.Fprintf(w, "%-24s %s\n", p.Target, p.Proxy)
	}
	fmt.Fprintln(w)

	t6, err := core.Table6(mod)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 6 — Relative error (epsilon, Eq. 12) of PISA-projected runtime, NTT size 2^14")
	fmt.Fprintf(w, "%-24s %14s %14s\n", "Target instruction", "Intel Xeon", "AMD EPYC")
	for _, row := range t6 {
		fmt.Fprintf(w, "%-24s %13.2f%% %13.2f%%\n", row.Target, row.IntelEps, row.AMDEps)
	}
	fmt.Fprintln(w, "\nNegative values mean the projection was conservative (predicted slower than")
	fmt.Fprintln(w, "ground truth). The paper's hardware measurements stay within 8% absolute.")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Listing 4 — addmod128 on SunnyCove: pseudo-assembly and resource pressure, AVX-512 vs MQX")
	fmt.Fprintln(w)
	for _, l := range []isa.Level{isa.LevelAVX512, isa.LevelMQX} {
		body := perfmodel.ModOpBody(l, mod, perfmodel.ModAdd)
		fmt.Fprintf(w, "addmod128 / %s / %s\n", l, isa.SunnyCove.Name)
		fmt.Fprintln(w, sched.RenderAsm(isa.SunnyCove, body.Instrs))
		fmt.Fprintln(w, sched.Analyze(isa.SunnyCove, body.Instrs))
	}

	fmt.Fprintln(w, "Figure 1 — NTT performance comparison at size 2^13 (lower is better)")
	fmt.Fprintf(w, "%-30s %14s\n", "system", "time (ns)")
	for _, bar := range core.Figure1(mod, ratios) {
		fmt.Fprintf(w, "%-30s %14.0f\n", bar.Label, bar.TimeNs)
	}
	fmt.Fprintln(w)

	for i, mach := range perfmodel.MeasurementMachines {
		fig := core.Figure4(mach, mod, ratios)
		rows := make([]string, len(fig.Ops))
		for j, op := range fig.Ops {
			rows[j] = op.String()
		}
		fmt.Fprintln(w, core.FormatSeriesTable(
			fmt.Sprintf("Figure 4%c — BLAS runtime per element (ns) on %s, single core, length %d",
				'a'+i, mach.Name, core.BLASVectorLength),
			"op", rows, fig.Series))
	}

	for i, mach := range perfmodel.MeasurementMachines {
		fig := core.Figure5(mach, mod, ratios)
		rows := make([]string, len(fig.Sizes))
		for j, n := range fig.Sizes {
			rows[j] = fmt.Sprintf("2^%d", log2(n))
		}
		fmt.Fprintln(w, core.FormatSeriesTable(
			fmt.Sprintf("Figure 5%c — NTT runtime per butterfly (ns) on %s, single core", 'a'+i, mach.Name),
			"size", rows, fig.Series))
	}

	fmt.Fprintln(w, "Figure 6 — NTT runtime per butterfly on AMD EPYC 9654,")
	fmt.Fprintln(w, "averaged over sizes 2^10..2^17, normalized to AVX-512 (Base)")
	fmt.Fprintf(w, "%-10s %-14s %s\n", "variant", "level", "normalized")
	for _, row := range core.Figure6(mod) {
		bar := strings.Repeat("#", int(math.Ceil(row.Normalized*40)))
		fmt.Fprintf(w, "%-10s %-14s %10.3f  %s\n", row.Label, row.Level, row.Normalized, bar)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Section 5.5 — schoolbook vs. Karatsuba 128-bit multiplication")
	fmt.Fprintln(w, "(per-butterfly ns at NTT size 2^14; ratio > 1 means schoolbook wins)")
	fmt.Fprintf(w, "%-20s %-10s %12s %12s %8s\n", "machine", "tier", "schoolbook", "karatsuba", "ratio")
	for _, row := range core.KaratsubaComparison(mod) {
		fmt.Fprintf(w, "%-20s %-10s %12.3f %12.3f %8.2f\n",
			row.Machine, row.Level, row.SchoolbookNs, row.KaratsubaNs, row.Speedup)
	}
	fmt.Fprintln(w)

	rns, err := core.CompareRNS(mod, 1<<14)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "RNS vs. double-word kernels at equal ~120-bit payload (modeled, 2^14 NTT)")
	fmt.Fprintln(w, "(ratio > 1: the two 60-bit RNS channel butterflies are faster than one")
	fmt.Fprintln(w, "124-bit double-word butterfly; the paper's case for 128-bit residues is")
	fmt.Fprintln(w, "the application-level conversion overhead RNS adds, Section 1)")
	fmt.Fprintf(w, "%-20s %-8s %14s %14s %8s\n", "machine", "tier", "double-word", "RNS 2x60", "ratio")
	for _, r := range rns {
		fmt.Fprintf(w, "%-20s %-8s %12.3fns %12.3fns %8.2f\n",
			r.Machine, r.Level, r.DoubleWordNs, r.RNSNs, r.Ratio)
	}
	fmt.Fprintln(w)

	for i, mach := range perfmodel.MeasurementMachines {
		fig, err := core.Figure7(mach, mod)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 7%c — speed-of-light NTT runtime (ns) on %s\n", 'a'+i, fig.Target.Name)
		fmt.Fprintf(w, "%-8s %16s", "size", "MQX-SOL")
		for _, b := range fig.Baselines {
			fmt.Fprintf(w, " %22s", b.Name)
		}
		fmt.Fprintln(w)
		for j, n := range fig.Sizes {
			fmt.Fprintf(w, "2^%-6d %16.0f", log2(n), fig.MQXSOL.Points[j].TimeNs)
			for _, b := range fig.Baselines {
				if v, ok := b.At(n); ok {
					fmt.Fprintf(w, " %22.0f", v)
				} else {
					fmt.Fprintf(w, " %22s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		for _, b := range fig.Baselines {
			fmt.Fprintf(w, "  geomean %s / MQX-SOL = %.2fx\n", b.Name, roofline.GeomeanRatio(b, fig.MQXSOL))
		}
		fmt.Fprintln(w)
	}

	h := core.Summary(mod, ratios)
	fmt.Fprintln(w, "Headline summary (model) vs. paper claims")
	fmt.Fprintf(w, "  NTT:  AVX-512 over best CPU baseline: %6.1fx   (paper: 38x avg)\n", h.AVX512OverBestBaseline)
	fmt.Fprintf(w, "  NTT:  MQX over best CPU baseline:     %6.1fx   (paper: 77x avg)\n", h.MQXOverBestBaseline)
	fmt.Fprintf(w, "  NTT:  MQX over AVX-512:               %6.1fx   (paper: 2.1x Intel / 3.7x AMD)\n", h.MQXOverAVX512)
	fmt.Fprintf(w, "  BLAS: AVX-512 over GMP:               %6.1fx   (paper: 62x avg)\n", h.AVX512OverGMPBLAS)
	fmt.Fprintf(w, "  BLAS: MQX over GMP:                   %6.1fx   (paper: 104x avg)\n", h.MQXOverGMPBLAS)
	fmt.Fprintf(w, "  MQX single core vs RPU ASIC:          %6.1fx slower (paper: as low as 35x)\n", h.MQXSlowdownVsRPU)
	return nil
}

// log2 is the exponent of a power-of-two transform size.
func log2(n int) int { return bits.TrailingZeros(uint(n)) }
