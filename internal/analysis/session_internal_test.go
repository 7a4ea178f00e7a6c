package analysis

import (
	"slices"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/retire"
)

// TestSessionRetiredChurnBounded replays PATCH churn on one session: 1,000
// times, SmallBank is checked and its first program is replaced by a fresh
// object and invalidated. The retired set keeps only the retire.Cap most
// recently replaced programs instead of all 1,000, and the session's
// estimate grows by at most that many retired entries in the session and
// in its block cache.
func TestSessionRetiredChurnBounded(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := NewSession(bench.Schema)
	programs := slices.Clone(bench.Programs)
	cycle := func() {
		if _, err := sess.Check(programs, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		old := programs[0]
		fresh := *old
		programs[0] = &fresh
		sess.Invalidate(old)
	}
	cycle()
	size := sess.SizeBytes()
	for range 999 {
		cycle()
	}
	sess.mu.Lock()
	retired := sess.retired.Len()
	sess.mu.Unlock()
	if retired != retire.Cap {
		t.Errorf("retired set holds %d programs after 1,000 cycles, want %d", retired, retire.Cap)
	}
	if slack := int64(2 * retire.Cap * retire.EntryBytes); sess.SizeBytes() > size+slack {
		t.Errorf("SizeBytes %d after 1,000 cycles, %d after one: grew by more than %d", sess.SizeBytes(), size, slack)
	}
}
