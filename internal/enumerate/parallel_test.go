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

// sessionInstances builds one search instance per unfolding of the
// program, drawing the LTPs from the shared analysis session. assign maps
// each LTP to its tuple assignment; bound 0 means the default unfold bound.
func sessionInstances(sess *analysis.Session, p *btp.Program, bound int, assign func(*btp.LTP) instantiate.Assignment) ([]Instance, error) {
	ltps, err := sess.LTPs(p, bound)
	if err != nil {
		return nil, err
	}
	out := make([]Instance, 0, len(ltps))
	for _, l := range ltps {
		out = append(out, Instance{LTP: l, Assignment: assign(l)})
	}
	return out, nil
}

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
			built, err := sessionInstances(sess, p, 0, smallBankAssignment)
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
// subset first, then two non-robust ones. The sweep must report the
// lowest-indexed candidate that admits an anomaly, with that candidate's
// own explored count.
func TestFindAnyCounterexample(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	candidates := smallBankCandidates(t, sess, b, [][]string{
		{"Balance", "DepositChecking"},    // robust — no counterexample
		{"DepositChecking", "WriteCheck"}, // lost update
		{"WriteCheck", "WriteCheck"},      // classic SmallBank anomaly
	})
	res, idx, err := FindAnyCounterexampleCtx(context.Background(), b.Schema, candidates, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || idx != 1 {
		t.Fatalf("found=%t idx=%d, want counterexample at index 1", res.Found, idx)
	}
	if res.Graph.IsConflictSerializable() {
		t.Fatal("counterexample graph should be cyclic")
	}
	alone, err := FindCounterexample(b.Schema, candidates[1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored != alone.Explored || res.Schedule.String() != alone.Schedule.String() {
		t.Fatalf("sweep winner explored %d (%s), its search alone %d (%s)",
			res.Explored, res.Schedule, alone.Explored, alone.Schedule)
	}
}

// TestFindAnyCounterexamplePanicSurfacesAsError: a panic inside the sweep
// returns as an *analysis.PanicError, which the server answers with a 500
// of code "panic", instead of ending the process.
func TestFindAnyCounterexamplePanicSurfacesAsError(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	candidates := smallBankCandidates(t, sess, b, [][]string{
		{"Balance", "DepositChecking"},
		{"DepositChecking", "WriteCheck"},
	})
	// An instance without an LTP panics when the sweep instantiates it —
	// before any search, although a candidate ahead of it certifies.
	candidates = append(candidates, []Instance{{}})
	res, idx, err := FindAnyCounterexampleCtx(context.Background(), b.Schema, candidates, 0, Options{})
	var pe *analysis.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("candidate panic surfaced as %v, want *analysis.PanicError", err)
	}
	if res != nil || idx != -1 {
		t.Fatalf("panicked sweep returned result %v and index %d, want nil and -1", res, idx)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
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
	res, idx, err := FindAnyCounterexampleCtx(context.Background(), b.Schema, candidates, 0, Options{})
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
	res, idx, err = FindAnyCounterexampleCtx(context.Background(), b.Schema, nil, 0, Options{})
	if err != nil || res.Found || idx != -1 || !res.Exhausted {
		t.Fatalf("empty candidates: res=%+v idx=%d err=%v", res, idx, err)
	}
}

// TestFindAnyCounterexampleCtxCancelled asserts a cancelled context aborts
// the sweep (and the per-candidate DFS) with the context's error instead
// of a result.
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

// TestExhaustedAtExactBudget: SmallBank {Balance, DepositChecking} has 35
// interleavings and no anomaly. A budget of exactly 35 searches the whole
// space, so the search must report it exhausted — the budget stops a
// search only when one more interleaving exists.
func TestExhaustedAtExactBudget(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	candidate := smallBankCandidates(t, sess, b, [][]string{{"Balance", "DepositChecking"}})[0]
	for _, tc := range []struct {
		budget, explored int
		exhausted        bool
	}{
		{34, 34, false},
		{35, 35, true},
		{36, 35, true},
		{0, 35, true},
	} {
		res, err := FindCounterexample(b.Schema, candidate, Options{MaxSchedules: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found || res.Explored != tc.explored || res.Exhausted != tc.exhausted {
			t.Errorf("budget %d: found=%t explored=%d exhausted=%t, want false %d %t",
				tc.budget, res.Found, res.Explored, res.Exhausted, tc.explored, tc.exhausted)
		}
	}
}
