package summary

import (
	"fmt"
	"strings"

	"repro/internal/btp"
)

// Method selects which cycle condition the robustness test uses.
type Method int

// The two detection methods compared in Section 7.
const (
	// TypeII is the paper's condition (Theorem 6.4 / Algorithm 2): a
	// dangerous cycle must contain a non-counterflow edge and an
	// adjacent-counterflow or ordered-counterflow pair.
	TypeII Method = iota
	// TypeI is the baseline of Alomari and Fekete [3]: a dangerous cycle
	// is any cycle containing at least one counterflow edge.
	TypeI
)

// String renders the method name.
func (m Method) String() string {
	if m == TypeI {
		return "type-I"
	}
	return "type-II"
}

// Witness describes one dangerous cycle found in a summary graph, as a
// cyclic edge sequence. For TypeII witnesses the three distinguished edges
// of Algorithm 2 come first in Core; Path contains connecting edges.
type Witness struct {
	Method Method
	// Core holds the distinguished edges: for TypeII the non-counterflow
	// edge e1 and the adjacent pair (e2, e3); for TypeI the counterflow
	// edge.
	Core []Edge
	// Cycle is a full edge sequence forming the dangerous cycle, in
	// traversal order (each edge's To equals the next edge's From, and the
	// last edge's To equals the first edge's From).
	Cycle []Edge
}

// String renders the witness cycle.
func (w *Witness) String() string {
	if w == nil {
		return "<no witness>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s cycle:\n", w.Method)
	for _, e := range w.Cycle {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// HasTypeICycle reports whether the graph contains a cycle with at least
// one counterflow edge (the condition of [3]); if so it returns a witness.
//
// Such a cycle exists iff some counterflow edge (P, q, counterflow, q', Q)
// closes back: P is reachable from Q (including P == Q).
func (g *Graph) HasTypeICycle() (bool, *Witness) {
	for _, e := range g.Edges {
		if e.Class != Counterflow {
			continue
		}
		if g.Reachable(e.To, e.From) {
			cycle := []Edge{e}
			back := g.shortestPath(e.To, e.From)
			cycle = append(cycle, back...)
			return true, &Witness{Method: TypeI, Core: []Edge{e}, Cycle: cycle}
		}
	}
	return false, nil
}

// HasTypeIICycle implements the cycle search of Algorithm 2: it reports
// whether SuG(P) contains a cycle with at least one non-counterflow edge
// and either two adjacent counterflow edges or an ordered-counterflow pair
// (Theorem 6.4). Cycles may revisit nodes and edges.
//
// The search is pair-centric rather than the literal triple loop of
// Algorithm 2: for every adjacent pair (e2 into node M, e3 counterflow out
// of M) satisfying the pair condition, it checks whether some
// non-counterflow edge e1 = (P1 -> P2) exists with e2's source reachable
// from P2 and P1 reachable from e3's target. This is equivalent to
// Algorithm 2 (see detect_test.go, which cross-checks against the literal
// algorithm) but avoids the cubic edge enumeration.
func (g *Graph) HasTypeIICycle() (bool, *Witness) {
	return g.typeII(false)
}

// HasTypeIICycleLiteral is the literal triple-loop transcription of
// Algorithm 2 from the paper. Exposed for testing and for the ablation
// benchmarks; verdicts always agree with HasTypeIICycle.
func (g *Graph) HasTypeIICycleLiteral() (bool, *Witness) {
	return g.typeII(true)
}

// pairCondition evaluates the condition of Algorithm 2 on the adjacent pair
// (e2, e3) where e3 is counterflow and e2 enters e3's source node:
// e2 is counterflow, or e3's source statement precedes e2's target
// statement in the shared program, or e2's source statement is of a type
// whose instantiations can end in an R- or PR-operation.
func pairCondition(e2, e3 Edge) bool {
	if e2.Class == Counterflow {
		return true
	}
	if e3.FromStmt.Before(e2.ToStmt) {
		return true
	}
	return e2.FromStmt.Stmt.EndsWithReadOrPredRead()
}

// findE1 answers the existence query of the pair-centric search: for a pair
// (S = source(e2), T = target(e3)), is there a non-counterflow edge
// e1 = (P1 -> P2) with coreach[S] ∋ P2 and reach[T] ∋ P1? Results are
// memoized per (S, T) node pair in cache (0 = unknown, 1 = no witness,
// ei+2 = witness edge index); callers own the cache. SubsetDetector.detect
// (compose.go) mirrors this scan and encoding over its member-filtered
// closures — changes here must land there too.
func (g *Graph) findE1(cache []int32, s, t int) int {
	n := len(g.Nodes)
	k := s*n + t
	if v := cache[k]; v != 0 {
		return int(v) - 2
	}
	res := -1
	for ei, e := range g.Edges {
		if e.Class != NonCounterflow {
			continue
		}
		p1 := int(g.edgeFrom[ei])
		p2 := int(g.edgeTo[ei])
		if g.coreach[s].has(p2) && g.reach[t].has(p1) {
			res = ei
			break
		}
	}
	cache[k] = int32(res + 2)
	return res
}

// typeIIPairAt scans the adjacent pairs of counterflow edge e3i (in in-list
// order) and returns the first witnessing e2 edge index plus its e1, or
// (-1, -1).
func (g *Graph) typeIIPairAt(cache []int32, e3i int) (e2i, e1i int) {
	e3 := g.Edges[e3i]
	m := g.edgeFrom[e3i]
	t := int(g.edgeTo[e3i])
	for _, e2i := range g.in[m] {
		e2 := g.Edges[e2i]
		if !pairCondition(e2, e3) {
			continue
		}
		if e1i := g.findE1(cache, int(g.edgeFrom[e2i]), t); e1i >= 0 {
			return e2i, e1i
		}
	}
	return -1, -1
}

func (g *Graph) typeII(literal bool) (bool, *Witness) {
	if literal {
		return g.typeIILiteral()
	}
	// Pair-centric search. For each counterflow edge e3 out of node M and
	// each edge e2 into M satisfying the pair condition, we need a
	// non-counterflow edge e1 = (P1 -> P2) with
	//   reach(P2, source(e2)) and reach(target(e3), P1).
	n := len(g.Nodes)
	if n == 0 {
		return false, nil
	}
	cache := make([]int32, n*n)
	for e3i, e3 := range g.Edges {
		if e3.Class != Counterflow {
			continue
		}
		if e2i, e1i := g.typeIIPairAt(cache, e3i); e2i >= 0 {
			return true, g.assembleWitness(g.Edges[e1i], g.Edges[e2i], e3)
		}
	}
	return false, nil
}

// typeIILiteral transcribes Algorithm 2 verbatim: three nested loops over
// edges with two reachability checks.
func (g *Graph) typeIILiteral() (bool, *Witness) {
	for _, e1 := range g.Edges {
		if e1.Class != NonCounterflow {
			continue
		}
		for _, e2 := range g.Edges {
			if !g.Reachable(e1.To, e2.From) {
				continue
			}
			for _, e3i := range g.out[g.nodeIdx[e2.To]] {
				e3 := g.Edges[e3i]
				if e3.Class != Counterflow {
					continue
				}
				if !g.Reachable(e3.To, e1.From) {
					continue
				}
				if pairCondition(e2, e3) {
					return true, g.assembleWitness(e1, e2, e3)
				}
			}
		}
	}
	return false, nil
}

// assembleWitness stitches the three distinguished edges into a full cyclic
// edge walk: e1, path(e1.To -> e2.From), e2, e3, path(e3.To -> e1.From).
func (g *Graph) assembleWitness(e1, e2, e3 Edge) *Witness {
	var cycle []Edge
	cycle = append(cycle, e1)
	cycle = append(cycle, g.shortestPath(e1.To, e2.From)...)
	cycle = append(cycle, e2, e3)
	cycle = append(cycle, g.shortestPath(e3.To, e1.From)...)
	return &Witness{Method: TypeII, Core: []Edge{e1, e2, e3}, Cycle: cycle}
}

// shortestPath returns some shortest edge path from one node to another
// (empty when from == to). It panics if no path exists; callers only ask
// for paths whose existence reachability has already established.
func (g *Graph) shortestPath(from, to *btp.LTP) []Edge {
	fi, ti := g.nodeIdx[from], g.nodeIdx[to]
	if fi == ti {
		return nil
	}
	prev := make(map[int]int, len(g.Nodes)) // node -> edge index used to reach it
	visited := make([]bool, len(g.Nodes))
	visited[fi] = true
	queue := []int{fi}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, ei := range g.out[u] {
			v := g.nodeIdx[g.Edges[ei].To]
			if visited[v] {
				continue
			}
			visited[v] = true
			prev[v] = ei
			if v == ti {
				// Reconstruct.
				var rev []Edge
				for cur := ti; cur != fi; {
					e := g.Edges[prev[cur]]
					rev = append(rev, e)
					cur = g.nodeIdx[e.From]
				}
				path := make([]Edge, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return path
			}
			queue = append(queue, v)
		}
	}
	panic(fmt.Sprintf("summary: no path from %s to %s despite reachability", from.Name, to.Name))
}

// Robust runs the robustness test of Algorithm 2 (or its type-I analogue)
// on the graph: true means the program set is certainly robust against
// MVRC; false means a dangerous cycle exists (the test is sound but
// incomplete, so false does not prove non-robustness). The witness is nil
// when robust.
func (g *Graph) Robust(m Method) (bool, *Witness) {
	var found bool
	var w *Witness
	if m == TypeI {
		found, w = g.HasTypeICycle()
	} else {
		found, w = g.HasTypeIICycle()
	}
	return !found, w
}
