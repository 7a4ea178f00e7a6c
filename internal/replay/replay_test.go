package replay

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/realize"
	"repro/internal/robust"
	"repro/internal/schedule"
)

// realizedCounterexample produces a concrete counterexample schedule for a
// non-robust SmallBank subset.
func realizedCounterexample(t *testing.T, names ...string) (*benchmarks.Benchmark, *enumerate.Result) {
	t.Helper()
	b := benchmarks.SmallBank()
	var programs []*btp.Program
	for _, n := range names {
		programs = append(programs, b.Program(n))
	}
	c := robust.NewChecker(b.Schema)
	res, err := c.Check(programs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Robust {
		t.Fatalf("%v unexpectedly robust", names)
	}
	cands, errs := realize.CandidateSets(b.Schema, res.Witness, realize.Options{ExtraInstances: true})
	var lists [][]enumerate.Instance
	for _, c := range cands {
		lists = append(lists, c.Instances)
	}
	r, _, err := enumerate.FindAnyCounterexampleCtx(context.Background(), b.Schema, lists, 0, enumerate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found {
		t.Fatalf("no counterexample realized for %v (candidate errors %v)", names, errs)
	}
	return b, r
}

// TestReplayBalAmAnomaly replays the {Bal, Am} counterexample on the MVCC
// engine and asserts the engine execution itself is non-serializable — the
// full static-to-operational chain.
func TestReplayBalAmAnomaly(t *testing.T) {
	b, r := realizedCounterexample(t, "Balance", "Amalgamate")
	res, err := Run(b.Schema, r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if res.Serializable {
		t.Fatalf("replayed execution is serializable; recorded:\n%s", res.Recorded.Format())
	}
	if !res.Recorded.AllowedUnderMVRC() {
		t.Fatal("engine execution must be allowed under MVRC")
	}
}

// TestReplayWriteCheckAnomaly replays the {WC, WC} lost update.
func TestReplayWriteCheckAnomaly(t *testing.T) {
	b, r := realizedCounterexample(t, "WriteCheck")
	res, err := Run(b.Schema, r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if res.Serializable {
		t.Fatal("replayed WriteCheck race should not be serializable")
	}
}

// TestReplaySerialScheduleStaysSerializable: replaying a serialized
// version of the same transactions yields a serializable recording.
func TestReplaySerialScheduleStaysSerializable(t *testing.T) {
	b, r := realizedCounterexample(t, "Balance", "Amalgamate")
	s := r.Schedule
	var order []*schedule.Op
	for _, txn := range s.Txns {
		order = append(order, txn.Ops...)
	}
	serialSchedule, err := schedule.FromOrder(b.Schema, s.Txns, order)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b.Schema, serialSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Serializable {
		t.Fatal("serial replay must be serializable")
	}
}

// TestFormatRendersRows checks the Figure 3-style formatter.
func TestFormatRendersRows(t *testing.T) {
	b, r := realizedCounterexample(t, "WriteCheck")
	_ = b
	out := r.Schedule.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(r.Schedule.Txns) {
		t.Fatalf("formatted %d rows for %d transactions:\n%s", len(lines), len(r.Schedule.Txns), out)
	}
	for _, line := range lines {
		if !strings.Contains(line, "T") || !strings.Contains(line, ":") {
			t.Fatalf("malformed row %q", line)
		}
	}
}
