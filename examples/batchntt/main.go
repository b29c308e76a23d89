// Batchntt: the "towards realizing SOL performance" experiment of
// Section 6. Real FHE workloads batch many independent NTTs; this example
// runs a batch of forward transforms through the library's persistent
// worker pool (BatchForwardInto: one ring.Fanout range per worker, one
// pooled scratch set per range), measures the parallel scaling
// efficiency, and compares it with the ideal linear scaling the
// speed-of-light model assumes.
package main

import (
	"fmt"
	"runtime"
	"time"

	"mqxgo/internal/modmath"
	"mqxgo/internal/ntt"
	"mqxgo/internal/u128"
)

func main() {
	const n = 1 << 12
	const batch = 256
	mod := modmath.DefaultModulus128()
	plan, err := ntt.CachedPlan(mod, n)
	if err != nil {
		panic(err)
	}

	// Independent inputs, as in a batched FHE pipeline.
	inputs := make([][]u128.U128, batch)
	dsts := make([][]u128.U128, batch)
	v := u128.From64(3)
	for i := range inputs {
		xs := make([]u128.U128, n)
		for j := range xs {
			xs[j] = v
			v = mod.Add(mod.Mul(v, u128.From64(0x9e3779b97f4a7c15)), u128.One)
		}
		inputs[i] = xs
		dsts[i] = make([]u128.U128, n)
	}

	run := func(workers int) time.Duration {
		start := time.Now()
		plan.BatchForwardInto(dsts, inputs, workers)
		return time.Since(start)
	}
	run(runtime.GOMAXPROCS(0)) // warm the worker pool and scratch caches

	maxWorkers := runtime.GOMAXPROCS(0)
	fmt.Printf("batch of %d forward NTTs of size 2^12 on up to %d cores\n\n", batch, maxWorkers)
	base := run(1)
	fmt.Printf("%8s %12s %10s %12s\n", "workers", "wall time", "speedup", "efficiency")
	fmt.Printf("%8d %12v %9.2fx %11.0f%%\n", 1, base.Round(time.Millisecond), 1.0, 100.0)
	for w := 2; w <= maxWorkers; w *= 2 {
		t := run(w)
		speedup := float64(base) / float64(t)
		fmt.Printf("%8d %12v %9.2fx %11.0f%%\n",
			w, t.Round(time.Millisecond), speedup, 100*speedup/float64(w))
	}
	fmt.Println()
	fmt.Println("The paper's SOL model (Eq. 13) assumes 100% efficiency; batched NTTs")
	fmt.Println("with no data dependencies get close, which is why Section 6 argues the")
	fmt.Println("speed-of-light projection is approachable for real FHE workloads.")
}
