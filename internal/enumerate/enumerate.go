// Package enumerate performs a bounded search over schedules(P, mvrc) for
// a non-serializable schedule: a constructive counterexample to robustness.
// It complements the sound-but-incomplete static analysis of
// internal/summary — when the static analysis rejects a program set, a
// counterexample found here proves the set truly non-robust (as the paper
// reports for every rejected SmallBank subset, Section 7.2).
//
// The search space is every interleaving of a given set of instantiated
// transactions that (a) respects per-transaction order, (b) respects atomic
// chunks, and (c) is free of dirty writes. The DFS tries the transactions
// in list order at each step and keeps the read-last-committed execution
// of its prefix incrementally (see prefix), so a schedule.Schedule is
// built only for the counterexample.
package enumerate

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/btp"
	"repro/internal/instantiate"
	"repro/internal/relschema"
	"repro/internal/schedule"
	"repro/internal/seg"
)

// Options bound the search.
type Options struct {
	// MaxSchedules caps the number of complete interleavings examined;
	// 0 means DefaultMaxSchedules.
	MaxSchedules int
}

// DefaultMaxSchedules is the default interleaving budget.
const DefaultMaxSchedules = 2_000_000

// Result reports the outcome of a search.
type Result struct {
	// Found is true when a non-serializable MVRC-allowed schedule exists
	// within the budget.
	Found bool
	// Schedule is the counterexample when found.
	Schedule *schedule.Schedule
	// Graph is its serialization graph.
	Graph *seg.Graph
	// Explored counts the complete interleavings examined.
	Explored int
	// Exhausted is true when the whole space was searched (so Found=false
	// is a proof that these transactions admit no counterexample).
	Exhausted bool
}

// FindNonSerializableCtx searches the interleavings of the given
// transactions for one whose MVRC execution is not conflict serializable.
// The DFS polls the context on its first node and once every 4096
// thereafter, so callers driven by server deadlines or client disconnects
// can abort a long exhaustive search; on cancellation the context's error
// is returned. The search stops on the budget only when one more
// interleaving exists, so a space of exactly MaxSchedules interleavings
// still ends Exhausted.
func FindNonSerializableCtx(ctx context.Context, schema *relschema.Schema, txns []*schedule.Transaction, opts Options) (*Result, error) {
	budget := opts.MaxSchedules
	if budget <= 0 {
		budget = DefaultMaxSchedules
	}
	for _, t := range txns {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("enumerate: %w", err)
		}
	}
	s := &search{ctx: ctx, p: newPrefix(txns), budget: budget, res: &Result{Exhausted: true}}
	s.visit()
	if s.cancelled {
		return nil, ctx.Err()
	}
	if s.res.Found {
		sched, err := schedule.FromOrder(schema, txns, s.p.placed(txns))
		if err != nil {
			panic(fmt.Sprintf("enumerate: internal: %v", err))
		}
		s.res.Schedule = sched
		s.res.Graph = seg.Build(sched)
	}
	return s.res, nil
}

// search is one DFS over the interleavings of a prefix's transactions.
type search struct {
	ctx       context.Context
	p         *prefix
	budget    int
	res       *Result
	steps     int
	cancelled bool
}

// visit explores every extension of the current prefix and reports
// whether the search stops: on a counterexample (left placed in the
// prefix), the budget or cancellation.
func (s *search) visit() bool {
	s.steps++
	if s.steps&4095 == 1 && s.ctx.Err() != nil {
		s.cancelled = true
		return true
	}
	p := s.p
	if len(p.order) == len(p.ops) {
		if s.res.Explored == s.budget {
			// One more interleaving than the budget allows: the space is
			// not exhausted.
			s.res.Exhausted = false
			return true
		}
		s.res.Explored++
		s.res.Found = p.violations == 0 && p.cyclic()
		return s.res.Found
	}
	hold := p.holding()
	for ti := range p.n {
		if hold >= 0 && hold != ti || p.done(ti) || !p.push(ti) {
			continue
		}
		if s.visit() {
			return true
		}
		p.pop()
	}
	return false
}

// Instance describes one transaction to instantiate for the search: an LTP
// plus its tuple assignment.
type Instance struct {
	LTP        *btp.LTP
	Assignment instantiate.Assignment
}

// FindCounterexample instantiates the given instances (with ids 1..n) and
// searches for a non-serializable MVRC schedule over them.
func FindCounterexample(schema *relschema.Schema, instances []Instance, opts Options) (*Result, error) {
	return FindCounterexampleCtx(context.Background(), schema, instances, opts)
}

// FindCounterexampleCtx is FindCounterexample under a context.
func FindCounterexampleCtx(ctx context.Context, schema *relschema.Schema, instances []Instance, opts Options) (*Result, error) {
	txns, err := instantiateAll(schema, instances)
	if err != nil {
		return nil, err
	}
	return FindNonSerializableCtx(ctx, schema, txns, opts)
}

func instantiateAll(schema *relschema.Schema, instances []Instance) ([]*schedule.Transaction, error) {
	txns := make([]*schedule.Transaction, 0, len(instances))
	for i, inst := range instances {
		t, err := instantiate.Instantiate(schema, inst.LTP, i+1, inst.Assignment)
		if err != nil {
			return nil, err
		}
		txns = append(txns, t)
	}
	return txns, nil
}

// FindAnyCounterexampleCtx searches several candidate instance sets in
// order, each under its own budget, and returns the counterexample of the
// first candidate that admits one, together with that candidate's index
// (-1 when none does). Every candidate is instantiated before any search,
// so a malformed candidate is an error wherever it stands in the list.
// When no candidate admits a counterexample the result sums their
// explored interleavings and is exhausted only if every search was. The
// search runs on the caller's goroutine and polls ctx (returning its
// error on cancellation); a panic returns as an *analysis.PanicError.
// parallelism is ignored.
func FindAnyCounterexampleCtx(ctx context.Context, schema *relschema.Schema, candidates [][]Instance, parallelism int, opts Options) (_ *Result, winner int, err error) {
	winner = -1 // what a recovered panic returns
	defer analysis.CapturePanic(&err)
	txns := make([][]*schedule.Transaction, len(candidates))
	for i, c := range candidates {
		if txns[i], err = instantiateAll(schema, c); err != nil {
			return nil, -1, fmt.Errorf("enumerate: candidate %d: %w", i, err)
		}
	}
	agg := &Result{Exhausted: true}
	for i, ts := range txns {
		res, err := FindNonSerializableCtx(ctx, schema, ts, opts)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, -1, cerr
			}
			return nil, -1, fmt.Errorf("enumerate: candidate %d: %w", i, err)
		}
		if res.Found {
			return res, i, nil
		}
		agg.Explored += res.Explored
		agg.Exhausted = agg.Exhausted && res.Exhausted
	}
	return agg, -1, nil
}
