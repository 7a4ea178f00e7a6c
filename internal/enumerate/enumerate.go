// Package enumerate performs a bounded search over schedules(P, mvrc) for
// a non-serializable schedule: a constructive counterexample to robustness.
// It complements the sound-but-incomplete static analysis of
// internal/summary — when the static analysis rejects a program set, a
// counterexample found here proves the set truly non-robust (as the paper
// reports for every rejected SmallBank subset, Section 7.2).
//
// The search space is every interleaving of a given set of instantiated
// transactions that (a) respects per-transaction order, (b) respects atomic
// chunks, and (c) is free of dirty writes; reads are assigned
// read-last-committed versions, so every completed interleaving is allowed
// under MVRC by construction.
package enumerate

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

// FindNonSerializable searches the interleavings of the given transactions
// for one whose MVRC execution is not conflict serializable.
func FindNonSerializable(schema *relschema.Schema, txns []*schedule.Transaction, opts Options) (*Result, error) {
	return FindNonSerializableCtx(context.Background(), schema, txns, opts)
}

// FindNonSerializableCtx is FindNonSerializable under a context: the DFS
// polls the context every few thousand steps, so callers driven by server
// deadlines or client disconnects can abort a long exhaustive search. On
// cancellation the context's error is returned.
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
	res := &Result{Exhausted: true}

	n := len(txns)
	next := make([]int, n)                    // next operation index per transaction
	inChunk := -1                             // transaction currently inside a chunk, or -1
	uncommitted := map[schedule.TupleID]int{} // tuple -> txn index holding an uncommitted write
	order := make([]*schedule.Op, 0)

	chunkOf := func(t *schedule.Transaction, opIdx int) (schedule.Chunk, bool) {
		for _, c := range t.Chunks {
			if c.From <= opIdx && opIdx <= c.To {
				return c, true
			}
		}
		return schedule.Chunk{}, false
	}

	// The DFS polls the context on its first node and once every 4096
	// thereafter: cheap relative to schedule assembly, frequent enough
	// that cancellation lands within microseconds.
	var steps int
	cancelled := false

	var dfs func() bool
	dfs = func() bool {
		steps++
		if steps&4095 == 1 && ctx.Err() != nil {
			cancelled = true
			return true
		}
		if len(order) == totalOps(txns) {
			res.Explored++
			s, err := schedule.FromOrder(schema, txns, order)
			if err != nil {
				panic(fmt.Sprintf("enumerate: internal: %v", err))
			}
			// Dirty writes and chunk violations are pruned during the
			// search, but visibility can only be checked on the complete
			// schedule: a read observing an unborn or dead version (e.g. a
			// tuple read before its insert commits) makes the interleaving
			// inadmissible under MVRC.
			if !s.AllowedUnderMVRC() {
				if res.Explored >= budget {
					res.Exhausted = false
					return true
				}
				return false
			}
			g := seg.Build(s)
			if !g.IsConflictSerializable() {
				res.Found = true
				// Copy the order: the slice is mutated as DFS unwinds.
				res.Schedule, _ = schedule.FromOrder(schema, txns, append([]*schedule.Op(nil), order...))
				res.Graph = seg.Build(res.Schedule)
				return true
			}
			if res.Explored >= budget {
				res.Exhausted = false
				return true
			}
			return false
		}
		for ti, t := range txns {
			if inChunk >= 0 && inChunk != ti {
				continue
			}
			oi := next[ti]
			if oi >= len(t.Ops) {
				continue
			}
			op := t.Ops[oi]
			// Dirty-write pruning: a write on a tuple with an uncommitted
			// write from another transaction is not allowed under MVRC.
			if op.IsWrite() {
				if holder, ok := uncommitted[op.TupleRef]; ok && holder != ti {
					continue
				}
			}
			// Apply.
			savedChunk := inChunk
			var releasedTuples []schedule.TupleID
			if op.IsWrite() {
				if _, ok := uncommitted[op.TupleRef]; !ok {
					uncommitted[op.TupleRef] = ti
					releasedTuples = append(releasedTuples, op.TupleRef)
				}
			}
			if op.Kind == schedule.OpCommit {
				for tu, holder := range uncommitted {
					if holder == ti {
						releasedTuples = append(releasedTuples, tu)
						delete(uncommitted, tu)
					}
				}
			}
			if c, ok := chunkOf(t, oi); ok && oi < c.To {
				inChunk = ti
			} else {
				inChunk = -1
			}
			next[ti]++
			order = append(order, op)

			stop := dfs()

			// Undo.
			order = order[:len(order)-1]
			next[ti]--
			inChunk = savedChunk
			if op.Kind == schedule.OpCommit {
				for _, tu := range releasedTuples {
					uncommitted[tu] = ti
				}
			} else if op.IsWrite() {
				for _, tu := range releasedTuples {
					delete(uncommitted, tu)
				}
			}
			if stop {
				return true
			}
		}
		return false
	}
	dfs()
	if cancelled {
		return nil, ctx.Err()
	}
	return res, nil
}

func totalOps(txns []*schedule.Transaction) int {
	n := 0
	for _, t := range txns {
		n += len(t.Ops)
	}
	return n
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
	txns := make([]*schedule.Transaction, 0, len(instances))
	for i, inst := range instances {
		t, err := instantiate.Instantiate(schema, inst.LTP, i+1, inst.Assignment)
		if err != nil {
			return nil, err
		}
		txns = append(txns, t)
	}
	return FindNonSerializableCtx(ctx, schema, txns, opts)
}

// SessionInstances builds one search instance per unfolding of the program,
// drawing the LTPs from the shared analysis session (so repeated candidate
// construction across subsets reuses the memoized unfoldings). assign maps
// each LTP to its tuple assignment; bound 0 means the default unfold bound.
func SessionInstances(sess *analysis.Session, p *btp.Program, bound int, assign func(*btp.LTP) instantiate.Assignment) ([]Instance, error) {
	ltps, err := sess.LTPs(p, bound)
	if err != nil {
		return nil, err
	}
	out := make([]Instance, 0, len(ltps))
	for _, l := range ltps {
		out = append(out, Instance{LTP: l, Assignment: assign(l)})
	}
	return out, nil
}

// FindAnyCounterexample searches several candidate instance sets
// concurrently (bounded by parallelism; 0 means GOMAXPROCS) and returns the
// counterexample of the lowest-indexed candidate that admits one, together
// with that candidate's index (-1 when none does). Every candidate is
// searched to completion under its own budget, so the result is
// deterministic regardless of scheduling. This is the constructive
// complement of the subset enumeration: when the static analysis rejects a
// set of subsets, their candidate instantiations can be checked for real
// anomalies in one parallel sweep; its workers are the only goroutines the
// engine starts.
func FindAnyCounterexample(schema *relschema.Schema, candidates [][]Instance, parallelism int, opts Options) (*Result, int, error) {
	return FindAnyCounterexampleCtx(context.Background(), schema, candidates, parallelism, opts)
}

// FindAnyCounterexampleCtx is FindAnyCounterexample under a context: each
// worker re-checks the context before claiming the next candidate and the
// per-candidate DFS polls it too, so the whole pool drains promptly on
// cancellation (returning the context's error). A panic in a worker
// returns as an *analysis.PanicError instead of ending the process.
func FindAnyCounterexampleCtx(ctx context.Context, schema *relschema.Schema, candidates [][]Instance, parallelism int, opts Options) (*Result, int, error) {
	if len(candidates) == 0 {
		return &Result{Exhausted: true}, -1, nil
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(candidates) {
		workers = len(candidates)
	}
	results := make([]*Result, len(candidates))
	errs := make([]error, len(candidates))
	panics := make([]error, workers)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot *error) {
			defer wg.Done()
			defer analysis.CapturePanic(slot)
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= len(candidates) {
					return
				}
				results[i], errs[i] = FindCounterexampleCtx(ctx, schema, candidates[i], opts)
			}
		}(&panics[w])
	}
	wg.Wait()
	for _, err := range panics {
		if err != nil {
			return nil, -1, fmt.Errorf("enumerate: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, -1, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, -1, fmt.Errorf("enumerate: candidate %d: %w", i, err)
		}
	}
	for i, res := range results {
		if res.Found {
			return res, i, nil
		}
	}
	// No counterexample: report exhaustion only if every search was
	// exhaustive.
	agg := &Result{Exhausted: true}
	for _, res := range results {
		agg.Explored += res.Explored
		if !res.Exhausted {
			agg.Exhausted = false
		}
	}
	return agg, -1, nil
}
