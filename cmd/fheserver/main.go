// fheserver is the hardened FHE evaluation service: a long-lived process
// exposing the internal/serve HTTP API over a shared RNS backend.
// Tenants keygen once and evaluate many times; the server enforces
// admission control (bounded queue, 429 shedding), per-request deadlines
// threaded through the backend's tower phases, noise-budget guardrails,
// panic containment with scratch quarantine, and graceful drain on
// SIGTERM/SIGINT.
//
// Fault injection (-fault) requires a binary built with
// -tags faultinject; production builds refuse to arm.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mqxgo/internal/faultinject"
	"mqxgo/internal/fhe"
	"mqxgo/internal/rns"
	"mqxgo/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	n := flag.Int("n", 1024, "ring degree (power of two)")
	levels := flag.Int("levels", 3, "modulus-ladder depth (RNS towers)")
	primeBits := flag.Int("prime-bits", 59, "bits per tower prime")
	plainMod := flag.Uint64("t", 257, "plaintext modulus")
	seed := flag.Int64("seed", 1, "scheme rng seed")
	evalWorkers := flag.Int("eval-workers", 2, "concurrent evaluations")
	queueDepth := flag.Int("queue", 8, "admission queue depth before shedding")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request deadline")
	budgetFloor := flag.Int("budget-floor", 2, "refuse evaluations predicted to land below this many budget bits")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long to wait for in-flight work on shutdown")
	faults := flag.String("fault", "", "comma-separated fault specs to arm at boot (needs -tags faultinject)")
	flag.Parse()

	c, err := rns.NewContext(*primeBits, *levels, *n)
	if err != nil {
		log.Fatalf("fheserver: ring context: %v", err)
	}
	// One tower worker per evaluation: the eval workers already fill the cores.
	b, err := fhe.NewRNSBackendWorkers(c, *plainMod, 1)
	if err != nil {
		log.Fatalf("fheserver: backend: %v", err)
	}
	s := serve.New(serve.Config{
		Scheme:          fhe.NewBackendScheme(b, *seed),
		Workers:         *evalWorkers,
		QueueDepth:      *queueDepth,
		RequestTimeout:  *timeout,
		BudgetFloorBits: *budgetFloor,
	})

	for _, spec := range strings.Split(*faults, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parsed, err := faultinject.ParseSpec(spec)
		if err != nil {
			log.Fatalf("fheserver: %v", err)
		}
		if err := faultinject.Arm(parsed); err != nil {
			log.Fatalf("fheserver: arming %q: %v", spec, err)
		}
		log.Printf("fheserver: armed fault %s", parsed)
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("fheserver: serving %s backend on %s (n=%d levels=%d workers=%d queue=%d floor=%d bits, faults %v)",
			b.Name(), *addr, *n, *levels, *evalWorkers, *queueDepth, *budgetFloor, faultinject.Enabled)
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errCh:
		log.Fatalf("fheserver: listener: %v", err)
	case got := <-sig:
		log.Printf("fheserver: %s received, draining (timeout %s)", got, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	report := s.Drain(ctx)
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("fheserver: http shutdown: %v", err)
	}
	buf, _ := json.Marshal(report)
	fmt.Printf("drain %s\n", buf)
	if !report.Clean {
		log.Fatalf("fheserver: drain left work in flight after %s", *drainTimeout)
	}
}
