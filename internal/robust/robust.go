// Package robust exposes the paper's end-to-end robustness analysis: given
// a set of basic transaction programs, decide (soundly) whether every
// schedule they can produce under multiversion Read Committed is conflict
// serializable (Definition 5.1, Algorithm 2), and enumerate the robust /
// maximal-robust subsets reported in Figures 6 and 7.
//
// Since the incremental-engine refactor the heavy lifting lives in
// internal/analysis: a Checker lazily owns an analysis.Session that unfolds
// each program once, caches the pairwise summary-graph edge blocks of
// Algorithm 1 per setting, and enumerates subsets with the session's one
// lattice walk — minimal non-robust cores and robust covers decide most
// subsets by containment, the rest run the cycle detector on a worker pool
// (Parallelism). The pre-refactor naive path — re-unfold and re-run
// Algorithm 1 per subset — is kept as NaiveRobustSubsets, the oracle the
// equivalence tests compare the engine against.
package robust

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/btp"
	"repro/internal/obs"
	"repro/internal/relschema"
	"repro/internal/summary"
)

// Result is the outcome of one robustness check. See analysis.Result.
type Result = analysis.Result

// Subset is a subset of programs identified by their short names, sorted.
type Subset = analysis.Subset

// SubsetReport lists every robust subset and the maximal ones among them.
type SubsetReport = analysis.SubsetReport

// Checker bundles a schema with an analysis configuration.
type Checker struct {
	Schema  *relschema.Schema
	Setting summary.Setting
	Method  summary.Method
	// UnfoldBound overrides the loop-unfolding bound; 0 means the paper's
	// bound of 2 (Proposition 6.1). Exposed for the ablation study only —
	// bound 1 is unsound in general.
	UnfoldBound int
	// Parallelism bounds the worker pool of subset enumeration
	// (RobustSubsets). 0 means GOMAXPROCS, 1 enumerates on the calling
	// goroutine.
	Parallelism int
	// Tracer receives phase spans from every analysis run through this
	// Checker; see analysis.Config.Tracer. nil (the default) is the no-op
	// and costs the hot paths nothing. robustcheck -timings sets a
	// SpanRecorder here — the same tracer the server threads per request.
	Tracer obs.Tracer

	// sess is the lazily created incremental engine. It memoizes per
	// program pointer, unfold bound and setting, so mutating the exported
	// configuration fields between calls is safe; mutating Schema is not.
	sessOnce sync.Once
	sess     *analysis.Session
}

// NewChecker returns a Checker with the paper's defaults: attribute
// granularity with foreign keys, type-II cycles, unfold bound 2.
func NewChecker(schema *relschema.Schema) *Checker {
	return &Checker{
		Schema:  schema,
		Setting: summary.SettingAttrDepFK,
		Method:  summary.TypeII,
	}
}

func (c *Checker) bound() int {
	if c.UnfoldBound > 0 {
		return c.UnfoldBound
	}
	return btp.DefaultUnfoldBound
}

// Session returns the Checker's incremental analysis engine, creating it on
// first use. The engine (and therefore Check/RobustSubsets) is safe to use
// from concurrent goroutines as long as the configuration fields are not
// mutated concurrently.
func (c *Checker) Session() *analysis.Session {
	c.sessOnce.Do(func() { c.sess = analysis.NewSession(c.Schema) })
	return c.sess
}

// config snapshots the exported fields into an engine configuration.
func (c *Checker) config() analysis.Config {
	return analysis.Config{
		Setting:     c.Setting,
		Method:      c.Method,
		UnfoldBound: c.UnfoldBound,
		Parallelism: c.Parallelism,
		Tracer:      c.Tracer,
	}
}

// Check runs the analysis on a set of BTPs: validate, unfold, build the
// summary graph, and search for dangerous cycles. Validation, unfolding and
// the pairwise edge blocks are memoized in the Checker's session, so
// repeated checks over overlapping program sets only pay for cycle
// detection.
func (c *Checker) Check(programs []*btp.Program) (*Result, error) {
	return c.Session().Check(programs, c.config())
}

// CheckCtx is Check under a context; see analysis.Session.CheckCtx.
func (c *Checker) CheckCtx(ctx context.Context, programs []*btp.Program) (*Result, error) {
	return c.Session().CheckCtx(ctx, programs, c.config())
}

// CheckLTPs runs the analysis directly on pre-unfolded LTPs, bypassing the
// session (naive single-shot construction).
func (c *Checker) CheckLTPs(ltps []*btp.LTP) *Result {
	g := summary.Build(c.Schema, ltps, c.Setting)
	ok, w := g.Robust(c.Method)
	return &Result{Robust: ok, Witness: w, Graph: g, LTPs: ltps}
}

// RobustSubsets checks every non-empty subset of the given programs and
// reports the robust and maximal robust ones. At most
// analysis.MaxSubsetPrograms programs are accepted; the check is
// exponential in their number. The engine's lattice walk decides subsets
// by core and cover containment or on the selection's universe detector
// (see analysis.Session.RobustSubsets); the output is byte-identical to
// the naive per-subset oracle (see NaiveRobustSubsets).
func (c *Checker) RobustSubsets(programs []*btp.Program) (*SubsetReport, error) {
	return c.Session().RobustSubsets(programs, c.config())
}

// RobustSubsetsCtx is RobustSubsets under a context: the walk polls the
// context between subset masks, so server timeouts and client disconnects
// abort the exponential sweep mid-flight.
func (c *Checker) RobustSubsetsCtx(ctx context.Context, programs []*btp.Program) (*SubsetReport, error) {
	return c.Session().RobustSubsetsCtx(ctx, programs, c.config())
}

// RobustSubsetsStream is the streaming form of RobustSubsetsCtx: the same
// lattice walk, emitting each subset verdict through the
// callback as its level decides it, in cost-ordered visit order, with
// optional early termination (see analysis.StreamOptions). A full stream's
// summary report is identical to RobustSubsetsCtx's.
func (c *Checker) RobustSubsetsStream(ctx context.Context, programs []*btp.Program, opts analysis.StreamOptions, emit func(analysis.StreamVerdict) error) (*analysis.StreamSummary, error) {
	return c.Session().RobustSubsetsStream(ctx, programs, c.config(), opts, emit)
}

// naiveCheck is the pre-refactor Check: validate, unfold and run
// Algorithm 1 from scratch, with no memoization.
func (c *Checker) naiveCheck(programs []*btp.Program) (*Result, error) {
	for _, p := range programs {
		if err := p.Validate(c.Schema); err != nil {
			return nil, fmt.Errorf("robust: %w", err)
		}
	}
	ltps := btp.UnfoldAll(programs, c.bound())
	g := summary.Build(c.Schema, ltps, c.Setting)
	ok, w := g.Robust(c.Method)
	return &Result{Robust: ok, Witness: w, Graph: g, LTPs: ltps}, nil
}

// NaiveRobustSubsets is the pre-refactor subset enumeration: it
// re-validates, re-unfolds and re-runs Algorithm 1 for every one of the
// 2^n − 1 subsets, sequentially. Kept as the oracle for the engine
// equivalence tests and the naive/cached benchmarks.
func (c *Checker) NaiveRobustSubsets(programs []*btp.Program) (*SubsetReport, error) {
	n := len(programs)
	if n > analysis.MaxSubsetPrograms {
		return nil, fmt.Errorf("robust: subset enumeration over %d programs exceeds the limit of %d", n, analysis.MaxSubsetPrograms)
	}
	var robustSubsets []Subset
	for mask := 1; mask < 1<<n; mask++ {
		var subset []*btp.Program
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, programs[i])
			}
		}
		res, err := c.naiveCheck(subset)
		if err != nil {
			return nil, err
		}
		if res.Robust {
			names := make(Subset, len(subset))
			for i, p := range subset {
				names[i] = p.ShortName()
			}
			sort.Strings(names)
			robustSubsets = append(robustSubsets, names)
		}
	}
	return analysis.NewSubsetReport(robustSubsets), nil
}
