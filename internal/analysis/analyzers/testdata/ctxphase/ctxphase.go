// Package fixture exercises the ctxphase analyzer: exported ...Ctx APIs
// must actually thread their context.
package fixture

import "context"

// phaseGate mirrors the backends' tower-phase checkpoint.
func phaseGate(ctx context.Context, phase string) error {
	_ = phase
	return ctx.Err()
}

// DeadCtx is the lie the analyzer exists for: a Ctx suffix over a body
// that ignores its context.
func DeadCtx(ctx context.Context, n int) int { // want `DeadCtx is exported with a Ctx suffix but never threads its context`
	return n * 2
}

// GateCtx threads the context straight into the phase gate.
func GateCtx(ctx context.Context) error {
	return phaseGate(ctx, "gate")
}

// ObserveCtx observes the context directly instead of gating.
func ObserveCtx(ctx context.Context) error {
	return ctx.Err()
}

// ChainCtx delegates to an unexported helper that gates each hop — the
// shape (an allocating call delegating to a gated one) the transitive
// rule exists for.
func ChainCtx(ctx context.Context, hops int) error {
	return chain(ctx, hops)
}

func chain(ctx context.Context, hops int) error {
	for i := 0; i < hops; i++ {
		if err := phaseGate(ctx, "hop"); err != nil {
			return err
		}
	}
	return nil
}

// LaunderCtx hands its context to a helper that also ignores it: passing
// the context around is not threading it.
func LaunderCtx(ctx context.Context, n int) int { // want `LaunderCtx is exported with a Ctx suffix but never threads its context`
	return launder(ctx, n)
}

func launder(ctx context.Context, n int) int {
	_ = ctx
	return n + 1
}

// AllowedCtx is DeadCtx consciously accepted, reason in scope.
//
//mqx:allow ctxphase fixture keeps an unthreaded context deliberately
func AllowedCtx(ctx context.Context, n int) int {
	return n * 3
}
