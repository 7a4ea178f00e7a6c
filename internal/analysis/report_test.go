package analysis_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/obs"
)

// pairwiseReport is the referee for NewSubsetReport: it sorts the robust
// subsets (smallest first, then by names) and keeps those no larger robust
// subset contains, comparing every pair.
func pairwiseReport(robust []analysis.Subset) *analysis.SubsetReport {
	rep := &analysis.SubsetReport{Robust: robust}
	byNames := func(a, b analysis.Subset) bool {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return len(a) < len(b)
	}
	sort.SliceStable(rep.Robust, func(i, j int) bool {
		if len(rep.Robust[i]) != len(rep.Robust[j]) {
			return len(rep.Robust[i]) < len(rep.Robust[j])
		}
		return byNames(rep.Robust[i], rep.Robust[j])
	})
	for _, s := range rep.Robust {
		maximal := true
		for _, t := range rep.Robust {
			if len(t) > len(s) && t.ContainsAll(s) {
				maximal = false
				break
			}
		}
		if maximal {
			rep.Maximal = append(rep.Maximal, s)
		}
	}
	sort.SliceStable(rep.Maximal, func(i, j int) bool {
		if len(rep.Maximal[i]) != len(rep.Maximal[j]) {
			return len(rep.Maximal[i]) > len(rep.Maximal[j])
		}
		return byNames(rep.Maximal[i], rep.Maximal[j])
	})
	return rep
}

// FuzzSubsetReport holds NewSubsetReport to the pairwise referee on random
// downward-closed robust tables: up to 12 programs whose names are a
// shuffle of the selection order (so name order and mask order disagree),
// robust exactly below one of the generator masks taken from gens.
func FuzzSubsetReport(f *testing.F) {
	f.Add(uint8(1), int64(1), []byte{})
	f.Add(uint8(3), int64(2), []byte{0xff, 0xff})
	f.Add(uint8(5), int64(3), []byte{0x03, 0x00, 0x0c, 0x00, 0x11, 0x00})
	f.Add(uint8(8), int64(4), []byte{0x0f, 0x00, 0xf0, 0x00, 0x3c, 0x00, 0x81, 0x00})
	f.Add(uint8(11), int64(5), []byte{0xff, 0x07, 0x55, 0x05, 0xaa, 0x02})
	f.Add(uint8(12), int64(6), []byte{0x7b, 0x0e, 0xde, 0x03, 0x01, 0x08, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, size uint8, seed int64, gens []byte) {
		n := 1 + int(size)%12
		names := make([]string, n)
		for i, p := range rand.New(rand.NewSource(seed)).Perm(n) {
			names[i] = fmt.Sprintf("P%02d", p)
		}
		var generators []uint32
		for i := 0; i+1 < len(gens) && len(generators) < 16; i += 2 {
			generators = append(generators, (uint32(gens[i])|uint32(gens[i+1])<<8)&(1<<n-1))
		}
		robust := func(mask uint32) bool {
			for _, g := range generators {
				if mask&^g == 0 {
					return true
				}
			}
			return false
		}
		var subsets []analysis.Subset
		for mask := uint32(1); mask < 1<<n; mask++ {
			if robust(mask) {
				var s analysis.Subset
				for i := range names {
					if mask&(1<<i) != 0 {
						s = append(s, names[i])
					}
				}
				sort.Strings(s)
				subsets = append(subsets, s)
			}
		}
		want := pairwiseReport(subsets)
		got, err := analysis.NewSubsetReport(context.Background(), names, robust)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Robust, want.Robust) {
			t.Errorf("robust subsets diverge from the pairwise scan\ngot:  %v\nwant: %v", got.Robust, want.Robust)
		}
		if !reflect.DeepEqual(got.Maximal, want.Maximal) {
			t.Errorf("maximal subsets diverge from the pairwise scan\ngot:  %v\nwant: %v", got.Maximal, want.Maximal)
		}
	})
}

// levelCanceller cancels its context at the walk's last lattice_level span:
// after the walk's last context poll, so the next poll is the report
// assembly's.
type levelCanceller struct {
	levels, last int
	cancel       context.CancelFunc
	at           time.Time
}

func (c *levelCanceller) Span(phase string, _ time.Duration) {
	if phase == obs.PhaseLatticeLevel {
		if c.levels++; c.levels == c.last {
			c.at = time.Now()
			c.cancel()
		}
	}
}

// TestWalkCancelDuringReport cancels a wide walk between its last level and
// its report: Auction(9)'s 18 programs, every subset decided by an imported
// cover of the whole selection, so the walk ends without a detector run and
// the assembly has 2^18 − 1 robust subsets to list. The walk must return
// context.Canceled within reportCancelBound of the cancel, having decided
// every mask first.
func TestWalkCancelDuringReport(t *testing.T) {
	const reportCancelBound = 100 * time.Millisecond
	bench := benchmarks.AuctionN(9)
	n := len(bench.Programs)
	cfg := analysis.DefaultConfig()
	sess := analysis.NewSession(bench.Schema)
	sess.ImportCovers([]analysis.CoreFact{{Setting: cfg.Setting, Method: cfg.Method, Programs: bench.Programs}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &levelCanceller{last: n, cancel: cancel}
	cfg.Tracer = tr
	_, err := sess.RobustSubsetsCtx(ctx, bench.Programs, cfg)
	if tr.at.IsZero() {
		t.Fatalf("walk ended after %d of %d lattice levels", tr.levels, n)
	}
	if elapsed := time.Since(tr.at); elapsed > reportCancelBound {
		t.Errorf("walk returned %v after the cancel, want within %v", elapsed, reportCancelBound)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := sess.Stats().Cores; st.CoverHits != 1<<n-1 || st.Misses != 0 {
		t.Errorf("walk decided %d subsets by cover and %d by the detector, want all %d by cover",
			st.CoverHits, st.Misses, 1<<n-1)
	}
}
