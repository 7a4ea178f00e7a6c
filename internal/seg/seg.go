// Package seg builds serialization graphs SeG(s) for multiversion
// schedules (Section 3.4): it computes the five dependency kinds between
// operations (ww, wr, rw, predicate-wr, predicate-rw), classifies
// counterflow dependencies (Section 4), tests conflict serializability
// (Theorem 3.2), and classifies cycles as type-I or type-II
// (Definition 4.3 / Theorem 4.2).
package seg

import (
	"fmt"
	"strings"

	"repro/internal/schedule"
)

// DepKind enumerates the dependency kinds of Section 3.4.
type DepKind int

// Dependency kinds.
const (
	WW DepKind = iota
	WR
	RW
	PredWR
	PredRW
)

// String renders the kind.
func (k DepKind) String() string {
	switch k {
	case WW:
		return "ww"
	case WR:
		return "wr"
	case RW:
		return "rw"
	case PredWR:
		return "pred-wr"
	case PredRW:
		return "pred-rw"
	default:
		return fmt.Sprintf("DepKind(%d)", int(k))
	}
}

// Dep is one dependency b_i →s a_j: operation To of transaction To.Txn
// depends on operation From of From.Txn.
type Dep struct {
	From *schedule.Op
	To   *schedule.Op
	Kind DepKind
	// Counterflow is true when the target transaction commits before the
	// source transaction (Section 4).
	Counterflow bool
}

// String renders the dependency.
func (d Dep) String() string {
	arrow := "->"
	if d.Counterflow {
		arrow = "~>"
	}
	return fmt.Sprintf("%s %s %s (%s)", d.From, arrow, d.To, d.Kind)
}

// Graph is the serialization graph SeG(s): transactions as nodes and
// dependencies as labeled edges.
type Graph struct {
	Schedule *schedule.Schedule
	Deps     []Dep
	// adj[t] lists dependencies leaving transaction t.
	adj map[*schedule.Transaction][]Dep
}

// Build computes every dependency of the schedule.
func Build(s *schedule.Schedule) *Graph {
	g := &Graph{Schedule: s, adj: map[*schedule.Transaction][]Dep{}}
	ops := s.Order
	for _, b := range ops {
		for _, a := range ops {
			if a.Txn == b.Txn {
				continue
			}
			if d, ok := dependency(s, b, a); ok {
				g.Deps = append(g.Deps, d)
				g.adj[b.Txn] = append(g.adj[b.Txn], d)
			}
		}
	}
	return g
}

// dependency tests whether a depends on b per Section 3.4 and classifies
// the dependency.
func dependency(s *schedule.Schedule, b, a *schedule.Op) (Dep, bool) {
	var kind DepKind
	switch {
	case b.IsWrite() && a.IsWrite() && a.TupleRef == b.TupleRef:
		// ww-dependency.
		if !b.Attrs.Intersects(a.Attrs) {
			return Dep{}, false
		}
		if !(s.VW[b] < s.VW[a]) {
			return Dep{}, false
		}
		kind = WW
	case b.IsWrite() && a.IsRead() && a.TupleRef == b.TupleRef:
		// wr-dependency: v_w(b) = v_r(a) or v_w(b) ≪ v_r(a).
		if !b.Attrs.Intersects(a.Attrs) {
			return Dep{}, false
		}
		if !(s.VW[b] <= s.VR[a]) {
			return Dep{}, false
		}
		kind = WR
	case b.IsRead() && a.IsWrite() && a.TupleRef == b.TupleRef:
		// rw-antidependency: v_r(b) ≪ v_w(a).
		if !b.Attrs.Intersects(a.Attrs) {
			return Dep{}, false
		}
		if !(s.VR[b] < s.VW[a]) {
			return Dep{}, false
		}
		kind = RW
	case b.IsWrite() && a.IsPredRead() && b.TupleRef.Rel == a.Rel:
		// predicate wr-dependency: v_w(b) = t_i or v_w(b) ≪ t_i for the
		// version t_i of b's tuple in Vset(a); attribute check unless b is
		// an I- or D-operation.
		ti, ok := s.VSet[a][b.TupleRef]
		if !ok || !(s.VW[b] <= ti) {
			return Dep{}, false
		}
		if b.Kind == schedule.OpWrite && !b.Attrs.Intersects(a.Attrs) {
			return Dep{}, false
		}
		kind = PredWR
	case b.IsPredRead() && a.IsWrite() && a.TupleRef.Rel == b.Rel:
		// predicate rw-antidependency: t_i ≪ v_w(a) for the version t_i of
		// a's tuple in Vset(b); attribute check unless a is I or D.
		ti, ok := s.VSet[b][a.TupleRef]
		if !ok || !(ti < s.VW[a]) {
			return Dep{}, false
		}
		if a.Kind == schedule.OpWrite && !b.Attrs.Intersects(a.Attrs) {
			return Dep{}, false
		}
		kind = PredRW
	default:
		return Dep{}, false
	}
	cb, ca := b.Txn.CommitOp(), a.Txn.CommitOp()
	counterflow := s.Before(ca, cb)
	return Dep{From: b, To: a, Kind: kind, Counterflow: counterflow}, true
}

// Cycle is a simple cycle of transactions together with one chosen
// dependency per consecutive pair (the last dependency returns to the
// first transaction).
type Cycle struct {
	Txns []*schedule.Transaction
	Deps []Dep
}

// String renders the cycle.
func (c Cycle) String() string {
	parts := make([]string, len(c.Deps))
	for i, d := range c.Deps {
		parts[i] = d.String()
	}
	return strings.Join(parts, ", ")
}

// HasCounterflow reports whether the cycle has at least one counterflow
// dependency (type-I, Definition 4.3).
func (c Cycle) HasCounterflow() bool {
	for _, d := range c.Deps {
		if d.Counterflow {
			return true
		}
	}
	return false
}

// IsTypeI reports whether the cycle is a type-I cycle.
func (c Cycle) IsTypeI() bool { return c.HasCounterflow() }

// IsTypeII reports whether the cycle is a type-II cycle (Definition 4.3):
// it has at least one non-counterflow dependency, and contains either two
// adjacent counterflow dependencies or an ordered-counterflow pair — two
// adjacent dependencies b_{i-1} → a_i and b_i → a_{i+1} with the second
// counterflow and either b_i <_{T_i} a_i in transaction T_i, or b_{i-1} an
// R- or PR-operation.
func (c Cycle) IsTypeII() bool {
	n := len(c.Deps)
	if n == 0 {
		return false
	}
	hasNonCF := false
	for _, d := range c.Deps {
		if !d.Counterflow {
			hasNonCF = true
			break
		}
	}
	if !hasNonCF {
		return false
	}
	for i := 0; i < n; i++ {
		prev := c.Deps[(i-1+n)%n]
		cur := c.Deps[i]
		if !cur.Counterflow {
			continue
		}
		if prev.Counterflow {
			return true // adjacent-counterflow pair
		}
		// Ordered-counterflow pair: prev = b_{i-1} -> a_i enters T_i; cur =
		// b_i -> a_{i+1} leaves T_i.
		bi, ai := cur.From, prev.To
		if bi.Index < ai.Index {
			return true
		}
		if prev.From.IsRead() || prev.From.IsPredRead() {
			return true
		}
	}
	return false
}

// SimpleCycles enumerates every simple transaction cycle of the graph,
// with every combination of dependency labels along it. Intended for the
// small schedules of tests and counterexample search; the enumeration is
// exponential in general.
func (g *Graph) SimpleCycles() []Cycle {
	// Group dependencies by (from, to) transaction pair.
	type pair struct{ from, to *schedule.Transaction }
	byPair := map[pair][]Dep{}
	succ := map[*schedule.Transaction][]*schedule.Transaction{}
	seenSucc := map[pair]bool{}
	for _, d := range g.Deps {
		p := pair{d.From.Txn, d.To.Txn}
		byPair[p] = append(byPair[p], d)
		if !seenSucc[p] {
			seenSucc[p] = true
			succ[d.From.Txn] = append(succ[d.From.Txn], d.To.Txn)
		}
	}
	idx := map[*schedule.Transaction]int{}
	for i, t := range g.Schedule.Txns {
		idx[t] = i
	}

	var cycles []Cycle
	var txnPath []*schedule.Transaction
	onPath := map[*schedule.Transaction]bool{}

	// expand enumerates label choices for a closed transaction walk.
	expand := func(path []*schedule.Transaction) {
		n := len(path)
		choices := make([][]Dep, n)
		for i := 0; i < n; i++ {
			choices[i] = byPair[pair{path[i], path[(i+1)%n]}]
		}
		var deps []Dep
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				cycles = append(cycles, Cycle{
					Txns: append([]*schedule.Transaction(nil), path...),
					Deps: append([]Dep(nil), deps...),
				})
				return
			}
			for _, d := range choices[i] {
				deps = append(deps, d)
				rec(i + 1)
				deps = deps[:len(deps)-1]
			}
		}
		rec(0)
	}

	var dfs func(start, cur *schedule.Transaction)
	dfs = func(start, cur *schedule.Transaction) {
		for _, nxt := range succ[cur] {
			if nxt == start {
				expand(txnPath)
				continue
			}
			// Only allow nodes with index greater than start's to avoid
			// enumerating each cycle once per rotation.
			if idx[nxt] <= idx[start] || onPath[nxt] {
				continue
			}
			onPath[nxt] = true
			txnPath = append(txnPath, nxt)
			dfs(start, nxt)
			txnPath = txnPath[:len(txnPath)-1]
			delete(onPath, nxt)
		}
	}
	for _, t := range g.Schedule.Txns {
		txnPath = txnPath[:0]
		txnPath = append(txnPath, t)
		onPath = map[*schedule.Transaction]bool{t: true}
		dfs(t, t)
	}
	return cycles
}

// FindCycle returns one transaction cycle with one dependency label per
// edge, or false when the graph is acyclic. Unlike SimpleCycles it runs in
// linear time and is safe on large, dense graphs.
func (g *Graph) FindCycle() (Cycle, bool) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*schedule.Transaction]int{}
	parentDep := map[*schedule.Transaction]Dep{}
	var cycle Cycle
	var visit func(t *schedule.Transaction) bool
	visit = func(t *schedule.Transaction) bool {
		color[t] = gray
		for _, d := range g.adj[t] {
			switch color[d.To.Txn] {
			case gray:
				// Unwind from t back to d.To.Txn.
				var txns []*schedule.Transaction
				var deps []Dep
				for cur := t; cur != d.To.Txn; {
					pd := parentDep[cur]
					txns = append(txns, cur)
					deps = append(deps, pd)
					cur = pd.From.Txn
				}
				// txns/deps are in reverse order; rebuild forward.
				cycle.Txns = append(cycle.Txns, d.To.Txn)
				for i := len(txns) - 1; i >= 0; i-- {
					cycle.Txns = append(cycle.Txns, txns[i])
					cycle.Deps = append(cycle.Deps, deps[i])
				}
				cycle.Deps = append(cycle.Deps, d)
				return true
			case white:
				parentDep[d.To.Txn] = d
				if visit(d.To.Txn) {
					return true
				}
			}
		}
		color[t] = black
		return false
	}
	for _, t := range g.Schedule.Txns {
		if color[t] == white && visit(t) {
			return cycle, true
		}
	}
	return Cycle{}, false
}

// HasCycle reports whether the transaction-level graph has a cycle,
// using DFS coloring (no label enumeration).
func (g *Graph) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*schedule.Transaction]int{}
	var visit func(t *schedule.Transaction) bool
	visit = func(t *schedule.Transaction) bool {
		color[t] = gray
		for _, d := range g.adj[t] {
			switch color[d.To.Txn] {
			case gray:
				return true
			case white:
				if visit(d.To.Txn) {
					return true
				}
			}
		}
		color[t] = black
		return false
	}
	for _, t := range g.Schedule.Txns {
		if color[t] == white && visit(t) {
			return true
		}
	}
	return false
}

// IsConflictSerializable reports whether the schedule is conflict
// serializable (Theorem 3.2: SeG(s) acyclic).
func (g *Graph) IsConflictSerializable() bool { return !g.HasCycle() }
