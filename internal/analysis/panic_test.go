package analysis_test

import (
	"bytes"
	"context"
	"errors"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/obs"
)

// poolPanicTracer panics on the first matching phase span emitted off the
// test goroutine — i.e. inside an enumeration worker. Sequential spans
// (emitted on the caller's goroutine) are left alone: a panic there would
// propagate to the test itself rather than exercise the pool recovery, and
// in production it is the HTTP middleware's recovery that catches it.
type poolPanicTracer struct {
	phase string
	fired atomic.Bool
}

func (tr *poolPanicTracer) Span(phase string, _ time.Duration) {
	if phase != tr.phase {
		return
	}
	if bytes.Contains(debug.Stack(), []byte("testing.tRunner")) {
		return
	}
	if tr.fired.CompareAndSwap(false, true) {
		panic("injected tracer panic")
	}
}

// TestLatticePanicSurfacesAsError injects a panic into a lattice
// enumeration worker and asserts it surfaces as *analysis.PanicError from
// RobustSubsetsCtx instead of killing the process — and that the session
// stays usable afterwards with an unchanged verdict set.
func TestLatticePanicSurfacesAsError(t *testing.T) {
	bench := benchmarks.AuctionN(4)
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	cfg.Parallelism = 4
	tr := &poolPanicTracer{phase: obs.PhaseDetect}
	cfg.Tracer = tr

	_, err := sess.RobustSubsetsCtx(context.Background(), bench.Programs, cfg)
	if !tr.fired.Load() {
		t.Fatal("tracer never fired inside a worker; the enumeration did not take the parallel branch")
	}
	var pe *analysis.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("worker panic surfaced as %v, want *analysis.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no worker stack")
	}

	// The session survives: the same enumeration, untraced, succeeds and
	// matches a fresh session's report.
	cfg.Tracer = nil
	rep, err := sess.RobustSubsetsCtx(context.Background(), bench.Programs, cfg)
	if err != nil {
		t.Fatalf("session unusable after recovered worker panic: %v", err)
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

// TestStreamPanicSurfacesAsError injects a panic into a streaming
// enumeration worker: the stream must return *analysis.PanicError through
// its error path (the server turns it into an in-band error line), with
// emitted verdicts before the fault intact.
func TestStreamPanicSurfacesAsError(t *testing.T) {
	bench := benchmarks.AuctionN(4)
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	cfg.Parallelism = 4
	tr := &poolPanicTracer{phase: obs.PhaseDetect}
	cfg.Tracer = tr

	_, err := sess.RobustSubsetsStream(context.Background(), bench.Programs, cfg,
		analysis.StreamOptions{Mode: analysis.StreamAll},
		func(analysis.StreamVerdict) error { return nil })
	if !tr.fired.Load() {
		t.Fatal("tracer never fired inside a stream worker")
	}
	var pe *analysis.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("stream worker panic surfaced as %v, want *analysis.PanicError", err)
	}
}
