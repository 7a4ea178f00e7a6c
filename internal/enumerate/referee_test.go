package enumerate

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/btp"
	"repro/internal/instantiate"
	"repro/internal/relschema"
	"repro/internal/schedule"
	"repro/internal/seg"
)

// reference is the counterexample search as it was before the incremental
// prefix, kept as the referee: the same DFS, with a map of uncommitted
// writes for the dirty-write rule and every complete interleaving checked
// from scratch — schedule.FromOrder, AllowedUnderMVRC and seg.Build. It
// drives a prefix in lockstep and fails the test on the first operation
// the two disagree to place, and on the first leaf where they disagree on
// admissibility, a version, a transaction pair's dependency count or the
// cycle. Its budget rule is the search's: stop when one more interleaving
// than the budget exists.
func reference(t testing.TB, schema *relschema.Schema, txns []*schedule.Transaction, budget int) *Result {
	t.Helper()
	res := &Result{Exhausted: true}
	p := newPrefix(txns)
	n := len(txns)
	next := make([]int, n)
	inChunk := -1
	uncommitted := map[schedule.TupleID]int{}
	var order []*schedule.Op
	total := 0
	txnIndex := map[*schedule.Transaction]int{}
	for i, tx := range txns {
		total += len(tx.Ops)
		txnIndex[tx] = i
	}
	chunkOf := func(tx *schedule.Transaction, opIdx int) (schedule.Chunk, bool) {
		for _, c := range tx.Chunks {
			if c.From <= opIdx && opIdx <= c.To {
				return c, true
			}
		}
		return schedule.Chunk{}, false
	}

	leaf := func() bool {
		s, err := schedule.FromOrder(schema, txns, order)
		if err != nil {
			t.Fatalf("leaf %d: %v", res.Explored, err)
		}
		admissible := s.AllowedUnderMVRC()
		g := seg.Build(s)
		cyclic := !g.IsConflictSerializable()
		if admissible != (p.violations == 0) || cyclic != p.cyclic() {
			t.Fatalf("leaf %d %s: reference admissible=%t cyclic=%t, prefix admissible=%t cyclic=%t",
				res.Explored, s, admissible, cyclic, p.violations == 0, p.cyclic())
		}
		for i, o := range p.placed(txns) {
			var want schedule.Version
			switch {
			case o.IsWrite():
				want = s.VW[o]
			case o.IsRead():
				want = s.VR[o]
			default:
				continue
			}
			if got := p.ops[p.order[i]].version; got != int(want) {
				t.Fatalf("leaf %d %s: %s has version %d in the prefix, %d in the schedule", res.Explored, s, o, got, want)
			}
		}
		counts := make([]int, n*n)
		for _, d := range g.Deps {
			counts[txnIndex[d.From.Txn]*n+txnIndex[d.To.Txn]]++
		}
		for i, c := range counts {
			if p.deps[i] != c {
				t.Fatalf("leaf %d %s: %d dependencies from T%d to T%d in the prefix, %d in seg.Build",
					res.Explored, s, p.deps[i], txns[i/n].ID, txns[i%n].ID, c)
			}
		}
		if admissible && cyclic {
			res.Found = true
			res.Schedule, _ = schedule.FromOrder(schema, txns, append([]*schedule.Op(nil), order...))
			res.Graph = seg.Build(res.Schedule)
		}
		return res.Found
	}

	var dfs func() bool
	dfs = func() bool {
		if len(order) == total {
			if res.Explored == budget {
				res.Exhausted = false
				return true
			}
			res.Explored++
			return leaf()
		}
		for ti, tx := range txns {
			if inChunk >= 0 && inChunk != ti {
				continue
			}
			oi := next[ti]
			if oi >= len(tx.Ops) {
				continue
			}
			op := tx.Ops[oi]
			dirty := false
			if op.IsWrite() {
				if holder, ok := uncommitted[op.TupleRef]; ok && holder != ti {
					dirty = true
				}
			}
			if p.push(ti) == dirty {
				t.Fatalf("after %v: reference dirty write %t on %s, prefix disagrees", order, dirty, op)
			}
			if dirty {
				continue
			}
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
			if c, ok := chunkOf(tx, oi); ok && oi < c.To {
				inChunk = ti
			} else {
				inChunk = -1
			}
			if p.holding() != inChunk {
				t.Fatalf("after %v: reference holds chunk of %d, prefix of %d", order, inChunk, p.holding())
			}
			next[ti]++
			order = append(order, op)

			stop := dfs()

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
			p.pop()
			if stop {
				return true
			}
		}
		return false
	}
	dfs()
	if p.violations != 0 || len(p.order) != 0 {
		t.Fatalf("prefix not empty after the search: %d violations, %d placed", p.violations, len(p.order))
	}
	for i, c := range p.deps {
		if c != 0 {
			t.Fatalf("prefix keeps %d dependencies from T%d to T%d after the search", c, txns[i/n].ID, txns[i%n].ID)
		}
	}
	return res
}

// checkSearch holds FindNonSerializableCtx to the reference on one set of
// transactions: the reference and the prefix agree leaf by leaf, and the
// search reports the reference's Found, Explored, Exhausted and
// counterexample. When the search exhausts its space it is rerun at a
// budget of exactly that space, which must still end exhausted, and at
// one less, which must not.
func checkSearch(t testing.TB, schema *relschema.Schema, txns []*schedule.Transaction, budget int) *Result {
	t.Helper()
	want := reference(t, schema, txns, budget)
	got := search1(t, schema, txns, budget)
	if got.Found != want.Found || got.Explored != want.Explored || got.Exhausted != want.Exhausted {
		t.Fatalf("search found=%t explored=%d exhausted=%t, reference found=%t explored=%d exhausted=%t",
			got.Found, got.Explored, got.Exhausted, want.Found, want.Explored, want.Exhausted)
	}
	if got.Found && got.Schedule.String() != want.Schedule.String() {
		t.Fatalf("search counterexample %s, reference %s", got.Schedule, want.Schedule)
	}
	if got.Found || !got.Exhausted || got.Explored == 0 {
		return got
	}
	if at := search1(t, schema, txns, got.Explored); !at.Exhausted || at.Explored != got.Explored {
		t.Fatalf("a space of %d interleavings at a budget of %d: explored=%d exhausted=%t",
			got.Explored, got.Explored, at.Explored, at.Exhausted)
	}
	if got.Explored > 1 {
		if below := search1(t, schema, txns, got.Explored-1); below.Exhausted || below.Explored != got.Explored-1 {
			t.Fatalf("a space of %d interleavings at a budget of %d: explored=%d exhausted=%t",
				got.Explored, got.Explored-1, below.Explored, below.Exhausted)
		}
	}
	return got
}

func search1(t testing.TB, schema *relschema.Schema, txns []*schedule.Transaction, budget int) *Result {
	t.Helper()
	res, err := FindNonSerializableCtx(context.Background(), schema, txns, Options{MaxSchedules: budget})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSearchMatchesReferenceRandom runs the referee over the random
// linear programs of TestAlgorithm2Soundness, robust or not, two instances
// per program, at budgets that both exhaust small spaces and cut larger
// ones.
func TestSearchMatchesReferenceRandom(t *testing.T) {
	s := soundnessSchema()
	rng := rand.New(rand.NewSource(7))
	searched, found := 0, 0
	for i := 0; i < 300; i++ {
		programs := randomPrograms(rng, s)
		var txns []*schedule.Transaction
		ok := true
		for _, p := range programs {
			ltp := btp.Unfold2(p)[0]
			for v := 0; v < 2 && ok; v++ {
				txns, ok = appendInstance(s, txns, ltp, soundnessAssignment(ltp, v))
			}
		}
		if !ok {
			continue // a structural clash of this instantiation
		}
		searched++
		if checkSearch(t, s, txns, 1+rng.Intn(600)).Found {
			found++
		}
	}
	if searched < 100 || found == 0 || found == searched {
		t.Fatalf("generator too narrow: %d searched, %d with a counterexample", searched, found)
	}
}

// appendInstance instantiates one more transaction; false when the
// assignment breaks the strict instantiation form.
func appendInstance(s *relschema.Schema, txns []*schedule.Transaction, ltp *btp.LTP, asg instantiate.Assignment) ([]*schedule.Transaction, bool) {
	tx, err := instantiate.Instantiate(s, ltp, len(txns)+1, asg)
	if err != nil {
		return txns, false
	}
	return append(txns, tx), true
}
