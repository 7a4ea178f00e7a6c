package analysis

import (
	"context"
	"fmt"
	"slices"
	"strings"
)

// Subset is a subset of programs identified by their short names, sorted.
type Subset []string

// String renders the subset as "{A, B, C}".
func (s Subset) String() string { return "{" + strings.Join(s, ", ") + "}" }

// ContainsAll reports whether s is a superset of t.
func (s Subset) ContainsAll(t Subset) bool {
	set := make(map[string]bool, len(s))
	for _, n := range s {
		set[n] = true
	}
	for _, n := range t {
		if !set[n] {
			return false
		}
	}
	return true
}

// Equal reports element-wise equality (both sides sorted).
func (s Subset) Equal(t Subset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetReport lists every robust subset and the maximal ones among them.
type SubsetReport struct {
	// Robust lists all non-empty robust subsets, smallest first, then
	// lexicographic.
	Robust []Subset
	// Maximal lists the robust subsets not strictly contained in another
	// robust subset — the entries of Figures 6 and 7.
	Maximal []Subset

	// Enumeration telemetry (zero for the naive oracle): Checked counts
	// subsets decided by running the cycle detector, Pruned counts subsets
	// decided by the minimal-core containment test instead, and Cores is
	// the number of minimal non-robust cores known when the enumeration
	// finished (seeds included). Checked+Pruned = 2^n − 1 for the pruned
	// traversal. Deterministic for a given session state: the walk visits
	// the levels in a fixed order on one goroutine.
	Checked int
	Pruned  int
	Cores   int
	// CertifiedCores counts the known cores relevant to this selection that
	// carry the certified provenance bit: minimal non-robust program sets
	// whose non-robustness has been proven by a replayed non-serializable
	// execution (internal/certify), not only by the static analysis. Zero
	// for the naive oracle, which does not consult the core store.
	CertifiedCores int
}

// String renders the maximal subsets on one line, as in Figure 6.
func (r *SubsetReport) String() string {
	parts := make([]string, len(r.Maximal))
	for i, s := range r.Maximal {
		parts[i] = s.String()
	}
	return strings.Join(parts, ", ")
}

// NewSubsetReport assembles the report of one enumeration from its
// robust-by-mask table: robust(mask) is the verdict of the subset whose
// bit i stands for names[i], for every mask in [1, 2^n). The lattice walk
// and the naive oracle both build their reports here, so any divergence
// between the two paths is a divergence in per-subset verdicts.
//
// Robustness is downward closed, so a robust subset is maximal exactly when
// none of its one-larger supersets is robust: at most n lookups per robust
// subset, O(n·2^n) in all. The subsets are visited in report order, level
// by level, and the context is polled at least once per level, so a
// deadline also stops a wide assembly.
func NewSubsetReport(ctx context.Context, names []string, robust func(mask uint32) bool) (*SubsetReport, error) {
	n := len(names)
	if n > MaxSubsetPrograms {
		return nil, fmt.Errorf("analysis: subset report over %d programs exceeds the limit of %d", n, MaxSubsetPrograms)
	}
	// A key numbers a subset's bits by name: bit n−1−r stands for the name
	// of rank r, so within one size descending keys are ascending names.
	byName := make([]int, n)
	for i := range byName {
		byName[i] = i
	}
	slices.SortStableFunc(byName, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	maximal := func(mask uint32) bool {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 && robust(mask|1<<i) {
				return false
			}
		}
		return true
	}
	report := &SubsetReport{}
	level := make([]int32, 0, binomial(n, n/2))
	for size := 1; size <= n; size++ {
		level = levelMasks(level, n, size)
		for j := len(level) - 1; j >= 0; j-- {
			if j%reportPollEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			key := uint32(level[j])
			var mask uint32
			for r, i := range byName {
				if key&(1<<(n-1-r)) != 0 {
					mask |= 1 << i
				}
			}
			if !robust(mask) {
				continue
			}
			s := make(Subset, 0, size)
			for r, i := range byName {
				if key&(1<<(n-1-r)) != 0 {
					s = append(s, names[i])
				}
			}
			report.Robust = append(report.Robust, s)
			if maximal(mask) {
				report.Maximal = append(report.Maximal, s)
			}
		}
	}
	// Report largest maximal subsets first, as the paper does; within a
	// size they stay in name order.
	slices.SortStableFunc(report.Maximal, func(a, b Subset) int { return len(b) - len(a) })
	return report, nil
}

// reportPollEvery is how many masks NewSubsetReport visits between
// context polls.
const reportPollEvery = 4096
