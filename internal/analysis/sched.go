package analysis

import (
	"math"
	"sort"

	"repro/internal/btp"
	"repro/internal/summary"
)

// This file is the cost-ordered scheduler of the streaming lattice
// walk (walk.go, stream.go): within a level, subsets are visited in
// descending estimated-non-robustness order, so the detector reaches
// conflict-dense subsets first — cores are minted early, first_non_robust
// terminates after a prefix of the level, and containment pruning of later
// *levels* compounds sooner. The estimate orders work, never decides it:
// every verdict still comes from containment or the detector, and because
// cores minted at level k have size k (they cannot prune size-k siblings),
// intra-level reordering changes neither the verdict set nor the
// deterministic pruned count — only the order verdicts become known.
//
// The estimate is a per-ordered-program-pair conflict weight: the edge
// count of the pair's cached summary edge blocks (summary.BlockSet), with
// counterflow edges weighted heavier — dangerous cycles need them — and a
// static statement-footprint prior for pairs whose blocks have not been
// composed yet (the cold start, before level 2 has touched any cross pair).
// Weights are recomputed before each level, so blocks composed while
// processing level k sharpen the schedule of level k+1.

// counterflowWeight is how much heavier a counterflow edge weighs than a
// plain edge in the conflict estimate.
const counterflowWeight = 3

// pairWeights estimates, for every ordered program pair (i, j), the
// conflict density the pair contributes to a subset containing both: the
// summed edge counts of the cached blocks between i's and j's LTPs
// (counterflow-weighted), falling back to the static prior when no block
// of the pair is cached yet. The diagonal (i, i) scores a program's
// conflicts with its own sibling LTPs, which is what orders singleton
// subsets — a level-1 non-robust program (a dangerous cycle within one
// program) is exactly a high self-conflict one.
// The static priors are memoized in static (same n*n layout, NaN =
// not yet computed): footprints never change within a run, so each pair's
// prior is computed at most once however many levels re-estimate. dst is
// scratch reused across levels.
func pairWeights(dst []float64, bs *summary.BlockSet, groups [][]*btp.LTP, static []float64) []float64 {
	n := len(groups)
	if cap(dst) < n*n {
		dst = make([]float64, n*n)
	}
	dst = dst[:n*n]
	for i := range groups {
		for j := range groups {
			known := false
			var score float64
			for _, li := range groups[i] {
				for _, lj := range groups[j] {
					if edges, cf, ok := bs.CachedPairStats(li, lj); ok {
						known = true
						score += float64(edges) + (counterflowWeight-1)*float64(cf)
					}
				}
			}
			if !known {
				if math.IsNaN(static[i*n+j]) {
					static[i*n+j] = staticConflict(groups[i], groups[j])
				}
				score = static[i*n+j]
			}
			dst[i*n+j] = score
		}
	}
	return dst
}

// staticConflict is the cold-start prior for an uncomposed ordered pair:
// statement pairs on a shared relation score 2 when both write (write-write
// conflicts seed counterflow edges) and 1 when one side writes. Pure
// footprint inspection — no summary construction.
func staticConflict(a, b []*btp.LTP) float64 {
	var score float64
	for _, la := range a {
		for _, lb := range b {
			for _, oa := range la.Stmts {
				qa := oa.Stmt
				aw := qa.Type.HasWrite()
				for _, ob := range lb.Stmts {
					qb := ob.Stmt
					if qa.Rel != qb.Rel {
						continue
					}
					switch {
					case aw && qb.Type.HasWrite():
						score += 2
					case aw || qb.Type.HasWrite():
						score++
					}
				}
			}
		}
	}
	return score
}

// orderLevel sorts the level's masks, which arrive in ascending order, in
// place by descending estimated conflict score — the summed pair weights
// over the subset's unordered program pairs (both directions) plus each
// member's diagonal self-conflict weight — with ascending mask as the
// deterministic tiebreak. scores is scratch reused across levels.
func orderLevel(masks []int32, scores []float64, n int, wts []float64) []float64 {
	scores = scores[:0]
	for _, mask := range masks {
		var score float64
		m := uint32(mask)
		for a := 0; a < n; a++ {
			if m&(1<<a) == 0 {
				continue
			}
			score += wts[a*n+a]
			for b := a + 1; b < n; b++ {
				if m&(1<<b) == 0 {
					continue
				}
				score += wts[a*n+b] + wts[b*n+a]
			}
		}
		scores = append(scores, score)
	}
	// A stable sort by descending score keeps the ascending-mask tiebreak.
	sort.Stable(&levelSorter{masks: masks, scores: scores})
	return scores
}

// levelSorter sorts a level's masks and their scores in lockstep,
// descending by score.
type levelSorter struct {
	masks  []int32
	scores []float64
}

func (s *levelSorter) Len() int { return len(s.masks) }
func (s *levelSorter) Swap(i, j int) {
	s.masks[i], s.masks[j] = s.masks[j], s.masks[i]
	s.scores[i], s.scores[j] = s.scores[j], s.scores[i]
}
func (s *levelSorter) Less(i, j int) bool { return s.scores[i] > s.scores[j] }
