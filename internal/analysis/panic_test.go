package analysis_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/obs"
)

// panicTracer panics on the first matching phase span, inside the lattice
// walk.
type panicTracer struct {
	phase string
	fired atomic.Bool
}

func (tr *panicTracer) Span(phase string, _ time.Duration) {
	if phase == tr.phase && tr.fired.CompareAndSwap(false, true) {
		panic("injected tracer panic")
	}
}

// TestLatticePanicSurfacesAsError injects a panic into a lattice walk and
// asserts it surfaces as *analysis.PanicError from RobustSubsetsCtx
// instead of unwinding into the caller — and that the session stays
// usable afterwards with an unchanged verdict set.
func TestLatticePanicSurfacesAsError(t *testing.T) {
	bench := benchmarks.AuctionN(4)
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	tr := &panicTracer{phase: obs.PhaseDetect}
	cfg.Tracer = tr

	_, err := sess.RobustSubsetsCtx(context.Background(), bench.Programs, cfg)
	if !tr.fired.Load() {
		t.Fatal("tracer never fired inside the walk")
	}
	var pe *analysis.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("walk panic surfaced as %v, want *analysis.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}

	// The session survives: the same enumeration, untraced, succeeds and
	// matches a fresh session's report.
	cfg.Tracer = nil
	rep, err := sess.RobustSubsetsCtx(context.Background(), bench.Programs, cfg)
	if err != nil {
		t.Fatalf("session unusable after recovered walk panic: %v", err)
	}
	fresh := analysis.NewSession(bench.Schema)
	want, err := fresh.RobustSubsetsCtx(context.Background(), bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Robust) != len(want.Robust) || len(rep.Maximal) != len(want.Maximal) {
		t.Errorf("post-panic report diverged: %d/%d robust, want %d/%d",
			len(rep.Robust), len(rep.Maximal), len(want.Robust), len(want.Maximal))
	}
}

// TestStreamPanicSurfacesAsError injects a panic into a streaming walk:
// the stream must return *analysis.PanicError through its error path (the
// server turns it into an in-band error line), with emitted verdicts
// before the fault intact.
func TestStreamPanicSurfacesAsError(t *testing.T) {
	bench := benchmarks.AuctionN(4)
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	tr := &panicTracer{phase: obs.PhaseDetect}
	cfg.Tracer = tr

	_, err := sess.RobustSubsetsStream(context.Background(), bench.Programs, cfg,
		analysis.StreamOptions{Mode: analysis.StreamAll},
		func(analysis.StreamVerdict) error { return nil })
	if !tr.fired.Load() {
		t.Fatal("tracer never fired inside the stream's walk")
	}
	var pe *analysis.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("stream walk panic surfaced as %v, want *analysis.PanicError", err)
	}
}
