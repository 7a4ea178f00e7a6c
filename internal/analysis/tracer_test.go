package analysis_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/summary"
)

func phaseMap(spans []obs.PhaseTiming) map[string]obs.PhaseTiming {
	m := make(map[string]obs.PhaseTiming, len(spans))
	for _, s := range spans {
		m[s.Phase] = s
	}
	return m
}

// TestTracerPhasesCheck asserts a traced check emits the validate/unfold,
// pairs, compose and detect spans on a cold session — and that pairs, the
// Algorithm 1 sub-span of compose, disappears once the block cache is warm.
func TestTracerPhasesCheck(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)

	cold := obs.NewSpanRecorder()
	cfg := analysis.DefaultConfig()
	cfg.Tracer = cold
	res, err := sess.Check(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	phases := phaseMap(cold.Snapshot())
	for _, want := range []string{obs.PhaseValidateUnfold, obs.PhasePairs, obs.PhaseCompose, obs.PhaseDetect} {
		if _, ok := phases[want]; !ok {
			t.Errorf("cold check missing phase %s (got %v)", want, cold.Snapshot())
		}
	}
	if p, c := phases[obs.PhasePairs], phases[obs.PhaseCompose]; p.Total > c.Total {
		t.Errorf("pairs (%v) is a sub-span of compose (%v) and cannot exceed it", p.Total, c.Total)
	}
	if phases[obs.PhaseDetect].Count != 1 {
		t.Errorf("check ran %d detect spans, want 1", phases[obs.PhaseDetect].Count)
	}

	warm := obs.NewSpanRecorder()
	cfg.Tracer = warm
	res2, err := sess.Check(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Robust != res.Robust {
		t.Error("tracing changed the verdict")
	}
	warmPhases := phaseMap(warm.Snapshot())
	if _, ok := warmPhases[obs.PhasePairs]; ok {
		t.Error("warm check emitted a pairs span (block cache was full)")
	}
	if _, ok := warmPhases[obs.PhaseCompose]; !ok {
		t.Error("warm check missing compose span")
	}
}

// TestTracerPhasesSubsets asserts a traced enumeration emits one
// lattice_level span per subset size and does not change the report.
func TestTracerPhasesSubsets(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)

	plain, err := sess.RobustSubsets(bench.Programs, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder()
	cfg := analysis.DefaultConfig()
	cfg.Tracer = rec
	traced, err := sess.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the verdict sets, not the whole report — the warm run's
	// pruning telemetry legitimately differs from the cold run's.
	if !reflect.DeepEqual(plain.Robust, traced.Robust) || !reflect.DeepEqual(plain.Maximal, traced.Maximal) {
		t.Error("tracing changed the subsets verdicts")
	}
	phases := phaseMap(rec.Snapshot())
	if got := phases[obs.PhaseLatticeLevel].Count; got != uint64(len(bench.Programs)) {
		t.Errorf("lattice_level spans = %d, want one per level = %d", got, len(bench.Programs))
	}
	if _, ok := phases[obs.PhaseFirstVerdict]; ok {
		t.Error("non-streamed enumeration must not emit first_verdict")
	}
}

// TestTracerPhasesStream asserts a traced stream emits exactly one
// first_verdict span (time-to-first-verdict) plus per-level and per-detect
// spans.
func TestTracerPhasesStream(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	rec := obs.NewSpanRecorder()
	cfg := analysis.DefaultConfig()
	cfg.Tracer = rec

	verdicts := 0
	_, err := sess.RobustSubsetsStream(context.Background(), bench.Programs, cfg,
		analysis.StreamOptions{Mode: analysis.StreamAll},
		func(analysis.StreamVerdict) error { verdicts++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := 1<<len(bench.Programs) - 1; verdicts != want {
		t.Fatalf("stream emitted %d verdicts, want %d", verdicts, want)
	}
	phases := phaseMap(rec.Snapshot())
	if got := phases[obs.PhaseFirstVerdict].Count; got != 1 {
		t.Errorf("first_verdict spans = %d, want exactly 1", got)
	}
	if got := phases[obs.PhaseLatticeLevel].Count; got != uint64(len(bench.Programs)) {
		t.Errorf("lattice_level spans = %d, want %d", got, len(bench.Programs))
	}
	for _, want := range []string{obs.PhaseValidateUnfold, obs.PhaseCompose, obs.PhaseDetect} {
		if _, ok := phases[want]; !ok {
			t.Errorf("stream missing phase %s", want)
		}
	}
}

// TestNilTracerZeroAllocOverhead pins the allocation budget of the pruned
// SmallBank enumeration with observability disabled, on the loops of
// BenchmarkRobustSubsets: pruned/<setting> reuses
// one Checker (AllocsPerRun's warm-up run caches its blocks and seeds its
// cores and covers), pruned-cold enumerates on a fresh Checker per run.
// AllocsPerRun measures at GOMAXPROCS 1, so the counts are deterministic
// (34 warm, 164 cold); each bound is the count plus one, and catches any
// per-span, per-level or per-subset allocation leaking past the
// nil-tracer branch. The warm walk is decided by containment alone, so it
// never looks up the universe-graph memo.
func TestNilTracerZeroAllocOverhead(t *testing.T) {
	bench := benchmarks.SmallBank()
	type allocCase struct {
		name    string
		checker func() *robust.Checker
		max     float64
	}
	var cases []allocCase
	for _, setting := range summary.AllSettings {
		warm := robust.NewChecker(bench.Schema)
		warm.Setting = setting
		cases = append(cases, allocCase{"pruned/" + setting.String(), func() *robust.Checker { return warm }, 35})
	}
	cases = append(cases, allocCase{"pruned-cold", func() *robust.Checker { return robust.NewChecker(bench.Schema) }, 165})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := tc.checker().RobustSubsets(bench.Programs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Errorf("%s enumeration = %.0f allocs/op with nil tracer, want <= %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}
