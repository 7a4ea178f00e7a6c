package enumerate_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/realize"
	"repro/internal/summary"
)

// newOrderStatusCandidate returns TPC-C {NO, OS}'s canonical+extra
// candidate under attr+FK, a space that no budget up to the request cap
// exhausts and in which no counterexample lies.
func newOrderStatusCandidate(tb testing.TB) (*benchmarks.Benchmark, []enumerate.Instance) {
	tb.Helper()
	b := benchmarks.TPCC()
	res, err := analysis.NewSession(b.Schema).CheckCtx(context.Background(),
		[]*btp.Program{b.Program("NO"), b.Program("OS")},
		analysis.Config{Setting: summary.SettingAttrDepFK, Method: summary.TypeII})
	if err != nil {
		tb.Fatal(err)
	}
	if res.Robust {
		tb.Fatal("TPC-C {NO, OS} is robust under attr+FK")
	}
	cands, errs := realize.CandidateSets(b.Schema, res.Witness, realize.Options{ExtraInstances: true})
	if len(cands) != 1 {
		tb.Fatalf("%d canonical+extra candidates (%v), want 1", len(cands), errs)
	}
	return b, cands[0].Instances
}

// BenchmarkSearch searches TPC-C {NO, OS}'s canonical+extra candidate to
// its budget. Its allocations are the search's setup, the same at every
// budget.
func BenchmarkSearch(b *testing.B) {
	bench, candidate := newOrderStatusCandidate(b)
	for _, budget := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("max-%d", budget), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				res, err := enumerate.FindCounterexample(bench.Schema, candidate, enumerate.Options{MaxSchedules: budget})
				if err != nil {
					b.Fatal(err)
				}
				if res.Found || res.Explored != budget || res.Exhausted {
					b.Fatalf("found=%t explored=%d exhausted=%t", res.Found, res.Explored, res.Exhausted)
				}
			}
		})
	}
}

// TestSearchAllocsIndependentOfBudget: the search allocates nothing per
// interleaving, so ten times the budget costs not one more allocation.
func TestSearchAllocsIndependentOfBudget(t *testing.T) {
	bench, candidate := newOrderStatusCandidate(t)
	allocs := func(budget int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := enumerate.FindCounterexample(bench.Schema, candidate, enumerate.Options{MaxSchedules: budget}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if at1k, at10k := allocs(1_000), allocs(10_000); at1k != at10k {
		t.Fatalf("%.0f allocs at 1,000 interleavings, %.0f at 10,000", at1k, at10k)
	}
}
