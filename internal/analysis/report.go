package analysis

import (
	"sort"
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
	// traversal. Deterministic for a given session state: level-order
	// processing makes the pruning independent of worker count and
	// scheduling.
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

// NewSubsetReport assembles a report from the robust subsets of one
// enumeration: it sorts them (smallest first, then lexicographic) and
// derives the maximal ones. Both the engine and the naive oracle build
// their reports through this function, so any divergence between the two
// paths is a divergence in per-subset verdicts.
//
// Maximality is derived by bitmask containment when the subsets span at
// most 64 distinct names (always true for the engine, which caps
// programs at MaxSubsetPrograms) — the O(R²) scan then costs word operations
// instead of a map per pair; the name-set path is kept for wider inputs.
func NewSubsetReport(robust []Subset) *SubsetReport {
	report := &SubsetReport{Robust: robust}
	sortSubsets(report.Robust)
	idx := make(map[string]int, 24)
	for _, s := range report.Robust {
		for _, n := range s {
			if _, ok := idx[n]; !ok {
				idx[n] = len(idx)
			}
		}
	}
	isMaximal := func(i int) bool {
		s := report.Robust[i]
		for _, t := range report.Robust {
			if len(t) > len(s) && t.ContainsAll(s) {
				return false
			}
		}
		return true
	}
	if len(idx) <= 64 {
		masks := make([]uint64, len(report.Robust))
		for i, s := range report.Robust {
			for _, n := range s {
				masks[i] |= 1 << idx[n]
			}
		}
		isMaximal = func(i int) bool {
			for j, t := range report.Robust {
				if len(t) > len(report.Robust[i]) && masks[i]&^masks[j] == 0 {
					return false
				}
			}
			return true
		}
	}
	for i := range report.Robust {
		if isMaximal(i) {
			report.Maximal = append(report.Maximal, report.Robust[i])
		}
	}
	// Report largest maximal subsets first, as the paper does.
	sort.SliceStable(report.Maximal, func(i, j int) bool {
		if len(report.Maximal[i]) != len(report.Maximal[j]) {
			return len(report.Maximal[i]) > len(report.Maximal[j])
		}
		return less(report.Maximal[i], report.Maximal[j])
	})
	return report
}

func sortSubsets(subsets []Subset) {
	sort.SliceStable(subsets, func(i, j int) bool {
		if len(subsets[i]) != len(subsets[j]) {
			return len(subsets[i]) < len(subsets[j])
		}
		return less(subsets[i], subsets[j])
	})
}

func less(a, b Subset) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
