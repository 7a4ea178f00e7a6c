package enumerate

import (
	"context"
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/instantiate"
)

// smallBankCandidates builds one instance set per named program list,
// drawing LTPs from the shared session.
func smallBankCandidates(t *testing.T, sess *analysis.Session, b *benchmarks.Benchmark, lists [][]string) [][]Instance {
	t.Helper()
	out := make([][]Instance, 0, len(lists))
	for _, names := range lists {
		var instances []Instance
		for _, name := range names {
			p := b.Program(name)
			if p == nil {
				t.Fatalf("unknown SmallBank program %q", name)
			}
			built, err := SessionInstances(sess, p, 0, func(l *btp.LTP) instantiate.Assignment {
				return smallBankAssignment(l)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(built) != 1 {
				t.Fatalf("SmallBank program %s should unfold to one LTP, got %d", name, len(built))
			}
			instances = append(instances, built...)
		}
		out = append(out, instances)
	}
	return out
}

// TestFindAnyCounterexample sweeps a mixed candidate list: the robust
// subset first, then two non-robust ones. The parallel sweep must report
// the lowest-indexed candidate that admits an anomaly, deterministically,
// at any parallelism.
func TestFindAnyCounterexample(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	candidates := smallBankCandidates(t, sess, b, [][]string{
		{"Balance", "DepositChecking"},    // robust — no counterexample
		{"DepositChecking", "WriteCheck"}, // lost update
		{"WriteCheck", "WriteCheck"},      // classic SmallBank anomaly
	})
	for _, par := range []int{1, 3} {
		res, idx, err := FindAnyCounterexample(b.Schema, candidates, par, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || idx != 1 {
			t.Fatalf("parallelism %d: found=%t idx=%d, want counterexample at index 1", par, res.Found, idx)
		}
		if res.Graph.IsConflictSerializable() {
			t.Fatal("counterexample graph should be cyclic")
		}
	}
}

// TestFindAnyCounterexamplePanicSurfacesAsError: a panic inside one
// candidate's search — certify's only engine goroutines — returns as an
// *analysis.PanicError from the sweep, which the server answers with a 500
// of code "panic", instead of ending the process.
func TestFindAnyCounterexamplePanicSurfacesAsError(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	candidates := smallBankCandidates(t, sess, b, [][]string{
		{"Balance", "DepositChecking"},
		{"DepositChecking", "WriteCheck"},
	})
	// An instance without an LTP panics when the search instantiates it.
	candidates = append(candidates, []Instance{{}})
	for _, par := range []int{1, 3} {
		_, _, err := FindAnyCounterexample(b.Schema, candidates, par, Options{})
		var pe *analysis.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: candidate panic surfaced as %v, want *analysis.PanicError", par, err)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("parallelism %d: PanicError carries no worker stack", par)
		}
	}
}

// TestFindAnyCounterexampleNone asserts exhaustion aggregation when no
// candidate admits an anomaly.
func TestFindAnyCounterexampleNone(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	candidates := smallBankCandidates(t, sess, b, [][]string{
		{"Balance", "DepositChecking"},
		{"Balance", "TransactSavings"},
	})
	res, idx, err := FindAnyCounterexample(b.Schema, candidates, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || idx != -1 {
		t.Fatalf("unexpected counterexample at %d", idx)
	}
	if !res.Exhausted || res.Explored == 0 {
		t.Fatalf("expected exhaustive aggregate search, got explored=%d exhausted=%t", res.Explored, res.Exhausted)
	}
	// Empty candidate list is trivially exhausted.
	res, idx, err = FindAnyCounterexample(b.Schema, nil, 0, Options{})
	if err != nil || res.Found || idx != -1 || !res.Exhausted {
		t.Fatalf("empty candidates: res=%+v idx=%d err=%v", res, idx, err)
	}
}

// TestFindAnyCounterexampleCtxCancelled asserts a cancelled context aborts
// the parallel sweep (and the per-candidate DFS) with the context's error
// instead of a result.
func TestFindAnyCounterexampleCtxCancelled(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	candidates := smallBankCandidates(t, sess, b, [][]string{
		{"Balance", "DepositChecking"},
		{"DepositChecking", "WriteCheck"},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := FindAnyCounterexampleCtx(ctx, b.Schema, candidates, 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := FindCounterexampleCtx(ctx, b.Schema, candidates[0], Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindCounterexampleCtx err = %v, want context.Canceled", err)
	}
}
