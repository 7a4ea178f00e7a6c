package analysis

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
)

// TestWalkAntichain pins the walk's antichain in both directions: a core
// set refuses a mask an entry already decides, drops the entries a new
// mask decides, and takes a certified bit only on an equal mask; a cover
// set mirrors the containment.
func TestWalkAntichain(t *testing.T) {
	cores := antichain{}
	if cores.decides(0b111) {
		t.Fatal("empty core set decides a mask")
	}
	if !cores.add(0b011, false) {
		t.Fatal("first add refused")
	}
	// A superset of a stored core is refused (already decided by it).
	if cores.add(0b111, true) {
		t.Error("superset of a stored core admitted")
	}
	if cores.certifiedLen() != 0 {
		t.Error("a certified superset set the bit of the smaller core")
	}
	// A subset supersedes: the dominated core is dropped.
	if !cores.add(0b010, false) || len(cores.facts) != 1 {
		t.Fatalf("strict subset not admitted in place of its superset: %+v", cores.facts)
	}
	if !cores.decides(0b100010) || !cores.decides(0b010) || cores.decides(0b100001) {
		t.Error("core containment wrong")
	}
	// An equal certified add upgrades the bit without inserting.
	if cores.add(0b010, true) || cores.certifiedLen() != 1 {
		t.Errorf("equal certified add: %+v", cores.facts)
	}
	// An incomparable core coexists.
	if !cores.add(0b11000, false) || len(cores.facts) != 2 {
		t.Errorf("incomparable core not admitted: %+v", cores.facts)
	}

	covers := antichain{up: true}
	if !covers.add(0b011, false) || covers.add(0b001, false) {
		t.Error("cover set admitted a subset of a stored cover")
	}
	if !covers.add(0b111, false) || len(covers.facts) != 1 {
		t.Errorf("larger cover did not replace the one it contains: %+v", covers.facts)
	}
	if !covers.decides(0b101) || covers.decides(0b1001) {
		t.Error("cover containment wrong")
	}
}

// TestSelectionCachesBounded: the per-selection memo maps must not grow
// one entry per distinct request shape forever — a long-lived server
// session sees arbitrarily many ordered selections. Distinct orderings of
// the same programs are distinct keys, so permutations of SmallBank's
// programs exercise the overflow path; verdict-bearing state must survive
// the clears (reports stay identical throughout).
func TestSelectionCachesBounded(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := NewSession(bench.Schema)
	cfg := DefaultConfig()

	base, err := sess.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// All 120 permutations of the 5 programs, plus prefixes: > 256 keys if
	// nothing bounded the universe memo.
	var permute func(ps []*btp.Program, k int)
	count := 0
	permute = func(ps []*btp.Program, k int) {
		if k == len(ps) {
			for cut := 1; cut <= len(ps); cut++ {
				if _, err := sess.RobustSubsets(ps[:cut], cfg); err != nil {
					t.Fatal(err)
				}
				count++
			}
			return
		}
		for i := k; i < len(ps); i++ {
			ps[k], ps[i] = ps[i], ps[k]
			permute(ps, k+1)
			ps[k], ps[i] = ps[i], ps[k]
		}
	}
	ps := append([]*btp.Program(nil), bench.Programs...)
	permute(ps, 0)
	if count <= selectionCacheMax {
		t.Fatalf("test issued only %d selections, need > %d to exercise the bound", count, selectionCacheMax)
	}

	sess.mu.Lock()
	universes := len(sess.universes)
	sess.mu.Unlock()
	if universes > selectionCacheMax {
		t.Errorf("universe memo unbounded: %d graphs (cap %d)", universes, selectionCacheMax)
	}

	// Verdicts are unaffected by the clears.
	again, err := sess.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != base.String() {
		t.Errorf("report changed across cache clears: %s vs %s", again, base)
	}
}
