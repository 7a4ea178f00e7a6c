package summary

import (
	"sync"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
)

func mask1(bits ...int) []uint64 {
	m := make([]uint64, 1)
	for _, b := range bits {
		m[0] |= 1 << uint(b)
	}
	return m
}

func TestCoreSetAntichain(t *testing.T) {
	cs := NewCoreSet(1)
	if cs.Len() != 0 || cs.Snapshot().Contains(mask1(0, 1, 2)) {
		t.Fatal("fresh core set not empty")
	}
	if !cs.Add(mask1(0, 1)) {
		t.Fatal("first Add refused")
	}
	// A superset of an existing core is refused (already decided by it).
	if cs.Add(mask1(0, 1, 2)) {
		t.Error("superset of an existing core admitted")
	}
	if cs.Len() != 1 {
		t.Fatalf("len = %d, want 1", cs.Len())
	}
	// A subset supersedes: the dominated core is dropped.
	if !cs.Add(mask1(1)) {
		t.Fatal("strict subset refused")
	}
	if cs.Len() != 1 {
		t.Errorf("len after subset insert = %d, want 1 (superset dropped)", cs.Len())
	}
	snap := cs.Snapshot()
	if !snap.Contains(mask1(1, 5)) || !snap.Contains(mask1(1)) {
		t.Error("containment misses supersets of the surviving core")
	}
	if snap.Contains(mask1(0, 5)) {
		t.Error("containment hit without any core contained")
	}
	// An incomparable core coexists.
	if !cs.Add(mask1(3, 4)) || cs.Len() != 2 {
		t.Errorf("incomparable core not admitted: len = %d", cs.Len())
	}
	if cs.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
	if got := len(cs.Masks()); got != 2 {
		t.Errorf("Masks() = %d cores, want 2", got)
	}
}

func TestCoreSetPopCount(t *testing.T) {
	if got := PopCount([]uint64{0b1011, 1 << 63}); got != 4 {
		t.Errorf("PopCount = %d, want 4", got)
	}
}

// TestCoreSetConcurrentAdd hammers Add/Snapshot from many goroutines; under
// -race this is the lock-free publication test. Every inserted core must be
// visible afterwards (none lost to a CAS race), modulo antichain dominance —
// the masks here are pairwise incomparable, so all must survive.
func TestCoreSetConcurrentAdd(t *testing.T) {
	const words = 2
	cs := NewCoreSet(words)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				// Distinct singleton bits are pairwise incomparable.
				bit := g*16 + i
				m := make([]uint64, words)
				m[bit/64] |= 1 << (uint(bit) % 64)
				cs.Add(m)
				cs.Snapshot().Contains(m)
			}
		}()
	}
	wg.Wait()
	if cs.Len() != 128 {
		t.Errorf("concurrent adds lost cores: len = %d, want 128", cs.Len())
	}
}

// TestRobustWitnessMask: across every benchmark universe, setting, method
// and subset mask, a robust RobustWitness verdict carries no mask, and a
// non-robust one returns a mask that (a) is non-empty, (b) is contained in
// the subset and (c) is itself non-robust — the witness cycle lives inside
// it.
func TestRobustWitnessMask(t *testing.T) {
	for _, bench := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.TPCC(), benchmarks.Auction()} {
		ltps := btp.UnfoldAll2(bench.Programs)
		if len(ltps) > 16 {
			ltps = ltps[:16] // keep the 2^n sweep cheap
		}
		for _, setting := range AllSettings {
			g := Compose(NewBlockSet(bench.Schema, setting), ltps)
			scratch := g.NewScratch()
			words := (len(ltps) + 63) / 64
			for _, method := range []Method{TypeII, TypeI} {
				for mask := 1; mask < 1<<len(ltps); mask++ {
					members := make([]uint64, words)
					for i := 0; i < len(ltps); i++ {
						if mask&(1<<i) != 0 {
							members[i/64] |= 1 << (uint(i) % 64)
						}
					}
					robust, wmask := g.RobustWitness(method, members, scratch)
					if robust {
						if wmask != nil {
							t.Fatalf("robust subset returned a witness mask")
						}
						continue
					}
					if PopCount(wmask) == 0 {
						t.Fatalf("%s/%s/%s mask %b: empty witness mask", bench.Name, setting, method, mask)
					}
					for w := range wmask {
						if wmask[w]&^members[w] != 0 {
							t.Fatalf("%s/%s/%s mask %b: witness mask leaves the subset", bench.Name, setting, method, mask)
						}
					}
					if ok, _ := g.RobustWitness(method, wmask, scratch); ok {
						t.Fatalf("%s/%s/%s mask %b: witness mask %b not itself non-robust",
							bench.Name, setting, method, mask, wmask[0])
					}
				}
			}
		}
	}
}
