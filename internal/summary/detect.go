package summary

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
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

// DetectScratch holds the reusable buffers of one detection worker over
// one graph: the closure rows, the closing-edge memo and the path search's
// buffers. Not safe for concurrent use — allocate one per goroutine.
type DetectScratch struct {
	backing        []uint64
	reach, coreach []bitset
	// cache memoizes closingEdge per (source, target) node pair k = s*n + t:
	// 0 unknown, 1 no closing edge, ei+2 the closing edge ei.
	cache []int32
	// prev and queue are path's per-node buffers; cycle holds the edge
	// indices of the last stitched witness cycle.
	prev, queue, cycle []int32
}

// NewScratch allocates a scratch sized for the graph.
func (g *Graph) NewScratch() *DetectScratch {
	n := len(g.Nodes)
	words := (n + 63) / 64
	backing := make([]uint64, 2*n*words)
	rows := make([]bitset, 2*n)
	for i := range rows {
		rows[i] = bitset(backing[i*words : (i+1)*words])
	}
	ints := make([]int32, n*n+2*n)
	return &DetectScratch{
		backing: backing,
		reach:   rows[:n:n],
		coreach: rows[n:],
		cache:   ints[: n*n : n*n],
		prev:    ints[n*n : n*n+n : n*n+n],
		queue:   ints[n*n+n:],
	}
}

// allMembers returns the membership mask selecting every node.
func (g *Graph) allMembers() []uint64 {
	all := make([]uint64, (len(g.Nodes)+63)/64)
	for i := range g.Nodes {
		bitset(all).set(i)
	}
	return all
}

// Robust runs the robustness test of Algorithm 2 (or its type-I analogue)
// on the graph: true means the program set is certainly robust against
// MVRC; false means a dangerous cycle exists (the test is sound but
// incomplete, so false does not prove non-robustness). The witness is nil
// when robust.
func (g *Graph) Robust(m Method) (bool, *Witness) {
	all := g.allMembers()
	s := g.NewScratch()
	if ok, e1, e2, e3 := g.detect(m, all, s); !ok {
		return false, g.witness(m, e1, e2, e3, all, s)
	}
	return true, nil
}

// RobustWitness reports whether the subgraph induced by the member nodes
// (a bitmask over node indices) is free of dangerous cycles under the
// method — the verdict Robust returns on the summary graph of just those
// nodes, which is exactly this graph induced on them. When it is not, it
// also returns the node mask of that graph's witness cycle: the
// distinguished edges' endpoints and every node on the connecting paths.
// The mask is what makes recorded non-robust cores minimal-ish out of the
// gate — the lattice walk then minimizes it to exact program-level
// minimality — rather than recording the whole (possibly much larger)
// subset. A robust subgraph returns (true, nil). With a reused scratch the
// robust case allocates nothing.
func (g *Graph) RobustWitness(method Method, members []uint64, s *DetectScratch) (bool, []uint64) {
	ok, e1, e2, e3 := g.detect(method, members, s)
	if ok {
		return true, nil
	}
	s.cycle = g.cycle(s.cycle[:0], e1, e2, e3, members, s)
	mask := bitset(make([]uint64, len(members)))
	for _, ei := range s.cycle {
		mask.set(int(g.edgeFrom[ei]))
	}
	return false, mask
}

// detect is the one cycle search of Algorithm 2 (TypeII) and of its type-I
// analogue, over the subgraph induced by the member nodes. It returns the
// verdict plus, when non-robust, the indices of the distinguished witness
// edges: (e1, e2, e3) for type II, (-1, -1, e3) for type I, where e3 is
// the counterflow edge.
//
// Cycles may revisit nodes and edges. Type I looks for a counterflow edge
// whose source is reachable from its target. Type II is pair-centric
// rather than the literal triple loop of Algorithm 2: for every adjacent
// pair (e2 into node M, e3 counterflow out of M) satisfying the pair
// condition, it asks closingEdge for a non-counterflow edge e1 that closes
// the cycle. This is equivalent to Algorithm 2 (HasTypeIICycleLiteral,
// cross-checked in detect_test.go) but avoids the cubic edge enumeration.
// The scans run in edge order, so the distinguished edges — and the
// witness — are deterministic.
func (g *Graph) detect(method Method, members []uint64, s *DetectScratch) (robust bool, e1, e2, e3 int) {
	mem := bitset(members)
	g.reachability(mem, s)
	for _, ei := range g.cf {
		m, t := int(g.edgeFrom[ei]), int(g.edgeTo[ei])
		if !mem.has(m) || !mem.has(t) {
			continue
		}
		if method == TypeI {
			if s.reach[t].has(m) {
				return false, -1, -1, int(ei)
			}
			continue
		}
		for _, e2i := range g.in[m] {
			src := int(g.edgeFrom[e2i])
			if !mem.has(src) || !pairCondition(g.Edges[e2i], g.Edges[ei]) {
				continue
			}
			if e1i := g.closingEdge(s, src, t); e1i >= 0 {
				return false, e1i, int(e2i), int(ei)
			}
		}
	}
	return true, -1, -1, -1
}

// closingEdge answers the existence query of the pair-centric search: for
// a pair (src = source(e2), tgt = target(e3)), the first non-counterflow
// edge e1 = (P1 -> P2) in edge order with src reachable from P2 and P1
// reachable from tgt, or -1. Results are memoized in s.cache, which
// reachability clears once per query. Membership of P1 and P2 is implied
// by the closure bits.
func (g *Graph) closingEdge(s *DetectScratch, src, tgt int) int {
	k := src*len(g.Nodes) + tgt
	if v := s.cache[k]; v != 0 {
		return int(v) - 2
	}
	res := -1
	for ei := range g.Edges {
		if g.Edges[ei].Class == NonCounterflow &&
			s.coreach[src].has(int(g.edgeTo[ei])) && s.reach[tgt].has(int(g.edgeFrom[ei])) {
			res = ei
			break
		}
	}
	s.cache[k] = int32(res + 2)
	return res
}

// reachability is the closure routine of both the search and the literal
// oracle: it fills s.reach[i] (the nodes i reaches) and s.coreach[i] (the
// nodes reaching i) with the reflexive-transitive closures of the subgraph
// induced by members, and clears the closing-edge memo. Rows of non-member
// nodes stay zero, so closure bits double as membership tests.
func (g *Graph) reachability(members bitset, s *DetectScratch) {
	clear(s.backing)
	clear(s.cache)
	for i := range g.Nodes {
		if members.has(i) {
			s.reach[i].set(i)
			s.coreach[i].set(i)
		}
	}
	for ei := range g.edgeFrom {
		fi, ti := int(g.edgeFrom[ei]), int(g.edgeTo[ei])
		if members.has(fi) && members.has(ti) {
			s.reach[fi].set(ti)
			s.coreach[ti].set(fi)
		}
	}
	fixpoint(s.reach)
	fixpoint(s.coreach)
}

// fixpoint iterates bitset unions to the transitive closure: row i absorbs
// row j for every bit j set in row i, until nothing changes.
func fixpoint(rows []bitset) {
	for changed := true; changed; {
		changed = false
		for i, cl := range rows {
			for wi, w := range cl {
				for w != 0 {
					j := wi*64 + bits.TrailingZeros64(w)
					w &= w - 1
					if j != i && cl.orInto(rows[j]) {
						changed = true
					}
				}
			}
		}
	}
}

// witness assembles the Witness of detect's distinguished edges.
func (g *Graph) witness(m Method, e1, e2, e3 int, members []uint64, s *DetectScratch) *Witness {
	s.cycle = g.cycle(s.cycle[:0], e1, e2, e3, members, s)
	w := &Witness{Method: m, Cycle: make([]Edge, len(s.cycle))}
	for i, ei := range s.cycle {
		w.Cycle[i] = g.Edges[ei]
	}
	if m == TypeI {
		w.Core = []Edge{g.Edges[e3]}
	} else {
		w.Core = []Edge{g.Edges[e1], g.Edges[e2], g.Edges[e3]}
	}
	return w
}

// cycle appends to dst the edge indices of the dangerous cycle through the
// distinguished edges, in traversal order: for type II e1, a path to e2's
// source and e2; then, for both methods, e3 and a path back to the source
// of the cycle's first edge (e1, or e3 itself for type I, where e1 < 0).
// It panics when a path is missing: detect established every one through
// the closures.
func (g *Graph) cycle(dst []int32, e1, e2, e3 int, members []uint64, s *DetectScratch) []int32 {
	first, ok := e3, true
	if e1 >= 0 {
		first = e1
		dst = append(dst, int32(e1))
		dst, ok = g.path(dst, int(g.edgeTo[e1]), int(g.edgeFrom[e2]), members, s)
		dst = append(dst, int32(e2))
	}
	dst = append(dst, int32(e3))
	dst, back := g.path(dst, int(g.edgeTo[e3]), int(g.edgeFrom[first]), members, s)
	if !ok || !back {
		panic("summary: no witness path despite established reachability")
	}
	return dst
}

// path is the one path search behind both witness forms and Reachable: it
// appends to dst the edge indices of one shortest path from node u to node
// v through member nodes (none when u == v) and reports whether one
// exists. The search is breadth-first over the out-lists in edge order, so
// the path is deterministic.
func (g *Graph) path(dst []int32, u, v int, members []uint64, s *DetectScratch) ([]int32, bool) {
	if u == v {
		return dst, true
	}
	mem := bitset(members)
	// prev[x] is the edge that first reached x: -1 unvisited, -2 for u.
	prev := s.prev
	for i := range prev {
		prev[i] = -1
	}
	prev[u] = -2
	queue := append(s.queue[:0], int32(u))
	for head := 0; head < len(queue); head++ {
		for _, ei := range g.out[queue[head]] {
			next := g.edgeTo[ei]
			if prev[next] != -1 || !mem.has(int(next)) {
				continue
			}
			prev[next] = ei
			if int(next) != v {
				queue = append(queue, next)
				continue
			}
			start := len(dst)
			for at := v; at != u; at = int(g.edgeFrom[prev[at]]) {
				dst = append(dst, prev[at])
			}
			slices.Reverse(dst[start:])
			return dst, true
		}
	}
	return dst, false
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

// HasTypeIICycleLiteral is the literal triple-loop transcription of
// Algorithm 2 from the paper: three nested loops over edges with two
// reachability checks. It is the oracle detect is tested against and the
// baseline of the ablation benchmarks; verdicts always agree with
// Robust(TypeII), and so does the witness.
func (g *Graph) HasTypeIICycleLiteral() (bool, *Witness) {
	all := g.allMembers()
	s := g.NewScratch()
	g.reachability(all, s)
	for e1 := range g.Edges {
		if g.Edges[e1].Class != NonCounterflow {
			continue
		}
		for e2 := range g.Edges {
			if !s.reach[g.edgeTo[e1]].has(int(g.edgeFrom[e2])) {
				continue
			}
			for _, e3 := range g.out[g.edgeTo[e2]] {
				if g.Edges[e3].Class != Counterflow || !s.reach[g.edgeTo[e3]].has(int(g.edgeFrom[e1])) {
					continue
				}
				if pairCondition(g.Edges[e2], g.Edges[e3]) {
					return true, g.witness(TypeII, e1, e2, int(e3), all, s)
				}
			}
		}
	}
	return false, nil
}
