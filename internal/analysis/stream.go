package analysis

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/btp"
)

// This file is the streaming face of the lattice walk (walk.go):
// RobustSubsetsStream runs the same walk as RobustSubsetsCtx — identical
// pruning invariants, identical verdicts — but emits each verdict through
// a callback the moment its level decides it, instead of materializing the
// full report after 2^n−1 decisions; visit order and detector are the
// collecting walk's. It can stop early (StreamMode): first_non_robust
// stops at the first non-robust verdict (level order makes it a smallest
// one); all_maximal_robust and top_k stop after the first level with no
// robust subset — monotonicity decides everything above; a MaxSubsets
// budget caps emitted verdicts in any mode.
// Terminated walks still merge their minted cores into the session fact
// store, but fold covers and assemble a report only when their robust
// knowledge is complete.

// StreamMode selects how much of the subset lattice a streaming
// enumeration traverses before stopping.
type StreamMode int

const (
	// StreamAll streams every subset verdict, level by level; on
	// completion the summary carries the full report, identical to
	// RobustSubsetsCtx.
	StreamAll StreamMode = iota
	// StreamFirstNonRobust terminates immediately after emitting the
	// first non-robust verdict — by level order, a smallest non-robust
	// subset. A workload with no non-robust subset streams to completion.
	StreamFirstNonRobust
	// StreamMaximalRobust emits only robust verdicts and terminates after
	// the first level without one: by monotonicity every larger subset is
	// non-robust, so the robust — and therefore maximal — sets are
	// already complete and the summary's report is exact.
	StreamMaximalRobust
	// StreamTopK is StreamMaximalRobust with the summary additionally
	// listing the K largest robust subsets (size-descending, then
	// lexicographic). StreamOptions.K must be positive.
	StreamTopK
)

// String renders the mode's wire name.
func (m StreamMode) String() string {
	switch m {
	case StreamFirstNonRobust:
		return "first_non_robust"
	case StreamMaximalRobust:
		return "all_maximal_robust"
	case StreamTopK:
		return "top_k"
	default:
		return "all"
	}
}

// StreamOptions configures a streaming enumeration.
type StreamOptions struct {
	Mode StreamMode
	// K is the result budget of StreamTopK (ignored by other modes).
	K int
	// MaxSubsets, when positive, terminates the stream after that many
	// emitted verdicts, whatever the mode.
	MaxSubsets int
}

// How a streamed verdict was decided (StreamVerdict.DecidedBy).
const (
	DecidedCore     = "core"     // non-robust by core containment
	DecidedCover    = "cover"    // robust by cover containment
	DecidedDetector = "detector" // the cycle detector ran
)

// Termination reasons (StreamSummary.Reason; empty means the traversal
// completed).
const (
	ReasonFirstNonRobust = "first_non_robust"
	ReasonLevelExhausted = "level_exhausted"
	ReasonMaxSubsets     = "max_subsets"
)

// StreamVerdict is one emitted subset verdict.
type StreamVerdict struct {
	// Programs are the subset's program short names, sorted.
	Programs []string
	// Size is the subset size (the lattice level that decided it).
	Size int
	// Robust is the verdict; DecidedBy tells whether containment pruning
	// (DecidedCore, DecidedCover) or the detector (DecidedDetector)
	// produced it.
	Robust    bool
	DecidedBy string
}

// StreamSummary is the final record of a streaming enumeration.
type StreamSummary struct {
	// Emitted counts verdicts handed to the callback; Checked counts
	// detector runs and Pruned containment decisions, over the visited
	// prefix of the lattice: the probe's run on a robust full selection
	// counts when the walk reaches the full set, a discarded probe
	// nowhere. Cores is the selection's core count after the run.
	Emitted, Checked, Pruned, Cores int
	// NewFacts is true when the walk added a core or cover to the session's
	// fact store.
	NewFacts bool
	// Terminated is true when the run stopped before visiting every
	// subset; Reason is then one of the Reason constants.
	Terminated bool
	Reason     string
	// Report is the full subset report — identical to RobustSubsetsCtx —
	// when the traversal's robust knowledge is complete: a run that
	// visited every level, or one terminated by a robust-exhausted level
	// (everything above is non-robust by monotonicity). Nil for
	// first_non_robust and max_subsets terminations.
	Report *SubsetReport
	// TopK lists the K largest robust subsets for StreamTopK.
	TopK []Subset
}

// RobustSubsetsStream is the streaming form of RobustSubsetsCtx: the same
// lattice walk over the same per-selection pruning state, emitting every
// verdict through the callback as soon as its level decides it, in
// ascending mask order within each level. A callback
// error aborts the walk and is returned — the server maps a client
// disconnect onto exactly that. Early-termination modes (StreamOptions)
// stop the walk without an error; the summary says why. Cores minted
// before any exit reach the session fact store, so even an aborted stream
// warms subsequent enumerations.
//
// Full-stream verdicts are bit-identical to RobustSubsetsCtx for any
// worker count: the emitted set covers every non-empty subset and the
// summary's report is assembled by the same code from the same decision
// table.
func (s *Session) RobustSubsetsStream(ctx context.Context, programs []*btp.Program, cfg Config, opts StreamOptions, emit func(StreamVerdict) error) (*StreamSummary, error) {
	if opts.Mode == StreamTopK && opts.K <= 0 {
		return nil, fmt.Errorf("analysis: top_k streaming needs k > 0")
	}
	return s.walkLattice(ctx, programs, cfg, opts, emit)
}

// topKBySize returns the k largest robust subsets, size-descending with
// lexicographic tiebreak. robust is in report order — by size, then by
// names — so whole size groups are taken from its end, each in its stored
// order, and nothing is sorted. The input is not mutated.
func topKBySize(robust []Subset, k int) []Subset {
	var top []Subset
	for end := len(robust); end > 0 && len(top) < k; {
		size := len(robust[end-1])
		start := sort.Search(end, func(i int) bool { return len(robust[i]) >= size })
		top = append(top, robust[start:min(end, start+k-len(top))]...)
		end = start
	}
	return top
}
