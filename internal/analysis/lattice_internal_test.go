package analysis

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
)

// factStoreLen sums the fact-log lengths (cores + covers) for the config's
// core key; factStoreSince counts only the facts stamped after gen (what a
// delta feed synced at gen should consume — cover-antichain evictions make
// this differ from the net length change).
func factStoreLen(s *Session, cfg Config) int {
	return factStoreSince(s, cfg, 0)
}

func factStoreSince(s *Session, cfg Config, gen uint64) int {
	ck := coreKey{setting: cfg.Setting, method: cfg.Method, bound: cfg.bound()}
	s.mu.Lock()
	defer s.mu.Unlock()
	coreFacts, _ := s.cores[ck].factsSince(gen)
	coverFacts, _ := s.covers[ck].factsSince(gen)
	return len(coreFacts) + len(coverFacts)
}

// factStoreGen reads the store generation for the config's core key.
func factStoreGen(s *Session, cfg Config) uint64 {
	ck := coreKey{setting: cfg.Setting, method: cfg.Method, bound: cfg.bound()}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coreGen[ck]
}

// TestLatticeDeltaFeed: re-syncing a cached lattice entry after a foreign
// merge advanced the fact store must consume only the merge's delta — the
// factsSeeded counter moves by at most the number of newly appended facts,
// never by a full store re-scan. A warm repeat with no generation movement
// seeds nothing at all.
func TestLatticeDeltaFeed(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := NewSession(bench.Schema)
	cfg := DefaultConfig()

	// First enumeration of a sub-selection: discovers and merges its facts.
	sub := bench.Programs[:3]
	if _, err := sess.RobustSubsets(sub, cfg); err != nil {
		t.Fatal(err)
	}
	afterSub := sess.factsSeeded.Load()
	storeAfterSub := factStoreLen(sess, cfg)
	if storeAfterSub == 0 {
		t.Fatal("sub-selection enumeration merged no facts — fixture broken")
	}

	// Warm repeat, generation unchanged: the cached entry is returned
	// without touching the logs.
	if _, err := sess.RobustSubsets(sub, cfg); err != nil {
		t.Fatal(err)
	}
	if got := sess.factsSeeded.Load(); got != afterSub {
		t.Errorf("warm repeat re-seeded facts: %d -> %d", afterSub, got)
	}
	subGen := factStoreGen(sess, cfg)

	// The full selection creates a second entry (seeding the current store
	// into it) and discovers facts the sub-selection could not — cores and
	// covers involving the remaining programs — whose merge advances the
	// shared generation.
	if _, err := sess.RobustSubsets(bench.Programs, cfg); err != nil {
		t.Fatal(err)
	}
	delta := factStoreSince(sess, cfg, subGen)
	total := factStoreLen(sess, cfg)
	if delta == 0 {
		t.Fatal("full enumeration merged nothing — fixture broken")
	}
	if delta >= total {
		t.Fatalf("every fact postdates the sub sync (%d of %d) — the scenario cannot distinguish delta from re-scan", delta, total)
	}

	// Re-running the sub-selection now finds its entry stale. The re-sync
	// must feed exactly the facts stamped after its synced generation, not
	// re-scan the whole store.
	before := sess.factsSeeded.Load()
	if _, err := sess.RobustSubsets(sub, cfg); err != nil {
		t.Fatal(err)
	}
	seeded := int(sess.factsSeeded.Load() - before)
	if seeded > delta {
		t.Errorf("stale entry re-sync consumed %d facts; the foreign delta is %d (store holds %d) — the delta feed regressed to a full re-scan",
			seeded, delta, total)
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

	// All 120 permutations of the 5 programs, plus prefixes: > 256 keys in
	// total across universes and lattices if nothing bounded them.
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
	universes, lattices := len(sess.universes), len(sess.lattices)
	sess.mu.Unlock()
	if universes > selectionCacheMax || lattices > selectionCacheMax {
		t.Errorf("selection caches unbounded: %d universe graphs, %d lattice entries (cap %d)",
			universes, lattices, selectionCacheMax)
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
