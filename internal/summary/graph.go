package summary

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/btp"
	"repro/internal/relschema"
)

// Granularity selects whether dependencies between operations require a
// common attribute (the paper's default) or merely a common tuple (the
// 'tpl dep' settings of Section 7.2).
type Granularity int

// The two granularities of Section 7.2.
const (
	// AttrGranularity: two operations conflict only if they access a
	// common attribute of a common tuple.
	AttrGranularity Granularity = iota
	// TupleGranularity: two operations conflict whenever they access a
	// common tuple; attribute sets are widened to the full attribute set
	// of the relation.
	TupleGranularity
)

// String renders the granularity as in the experiment tables.
func (g Granularity) String() string {
	if g == TupleGranularity {
		return "tpl dep"
	}
	return "attr dep"
}

// Setting is one of the four analysis settings of Section 7.2:
// {tpl, attr} granularity × foreign keys {off, on}.
type Setting struct {
	Granularity Granularity
	// UseForeignKeys enables the foreign-key suppression check of
	// cDepConds in Algorithm 1.
	UseForeignKeys bool
}

// The four settings of Figure 6 / Figure 7.
var (
	SettingTplDep    = Setting{TupleGranularity, false}
	SettingAttrDep   = Setting{AttrGranularity, false}
	SettingTplDepFK  = Setting{TupleGranularity, true}
	SettingAttrDepFK = Setting{AttrGranularity, true}
)

// AllSettings lists the four settings in the order of Figure 6.
var AllSettings = []Setting{SettingTplDep, SettingAttrDep, SettingTplDepFK, SettingAttrDepFK}

// String renders the setting name as used in the paper ("attr dep + FK").
func (s Setting) String() string {
	name := s.Granularity.String()
	if s.UseForeignKeys {
		name += " + FK"
	}
	return name
}

// EdgeClass distinguishes the two kinds of summary-graph edges.
type EdgeClass int

// Edge classes.
const (
	NonCounterflow EdgeClass = iota
	Counterflow
)

// String renders the class.
func (c EdgeClass) String() string {
	if c == Counterflow {
		return "counterflow"
	}
	return "non-counterflow"
}

// Edge is a summary-graph edge (P_i, q_i, c, q_j, P_j): instantiations of
// statement occurrence FromStmt in program From and occurrence ToStmt in
// program To can admit a dependency of class Class.
type Edge struct {
	From     *btp.LTP
	FromStmt *btp.StmtOcc
	Class    EdgeClass
	ToStmt   *btp.StmtOcc
	To       *btp.LTP
}

// String renders the edge as "(P, q@pos, class, q@pos, P)".
func (e Edge) String() string {
	return fmt.Sprintf("(%s, %s, %s, %s, %s)",
		e.From.Name, e.FromStmt, e.Class, e.ToStmt, e.To.Name)
}

// Graph is the summary graph SuG(P) for a set of LTPs under a setting.
type Graph struct {
	// Setting is the analysis setting the graph was built under.
	Setting Setting
	// Nodes are the LTPs, in input order.
	Nodes []*btp.LTP
	// Edges are all edges in deterministic construction order.
	Edges []Edge

	schema  *relschema.Schema
	nodeIdx map[*btp.LTP]int
	// edgeFrom[ei] / edgeTo[ei] are the node indices of edge ei's
	// endpoints, recorded at construction so that indexing and cycle
	// detection avoid per-edge map lookups.
	edgeFrom, edgeTo []int32
	// out[i] / in[i] list the indices into Edges of the edges leaving /
	// entering node i, in edge order.
	out, in [][]int32
	// cf lists the indices of the counterflow edges, in edge order.
	cf []int32
}

// bitset is a simple fixed-size bitset over node indices.
type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// orInto ors src into b and reports whether b changed.
func (b bitset) orInto(src bitset) bool {
	changed := false
	for i, w := range src {
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

// NodeIndex returns the index of the given LTP in Nodes, or -1.
func (g *Graph) NodeIndex(l *btp.LTP) int {
	if i, ok := g.nodeIdx[l]; ok {
		return i
	}
	return -1
}

// OutEdges returns the edges leaving node l.
func (g *Graph) OutEdges(l *btp.LTP) []Edge {
	i := g.NodeIndex(l)
	if i < 0 {
		return nil
	}
	out := make([]Edge, 0, len(g.out[i]))
	for _, ei := range g.out[i] {
		out = append(out, g.Edges[ei])
	}
	return out
}

// InEdges returns the edges entering node l.
func (g *Graph) InEdges(l *btp.LTP) []Edge {
	i := g.NodeIndex(l)
	if i < 0 {
		return nil
	}
	in := make([]Edge, 0, len(g.in[i]))
	for _, ei := range g.in[i] {
		in = append(in, g.Edges[ei])
	}
	return in
}

// Reachable reports whether to is reachable from from following summary
// edges; every node is reachable from itself (possibly via the empty path).
// It runs the witness path search, not the closure routine of detect, so
// tests can use it as an independent reference.
func (g *Graph) Reachable(from, to *btp.LTP) bool {
	fi, ti := g.NodeIndex(from), g.NodeIndex(to)
	if fi < 0 || ti < 0 {
		return false
	}
	_, ok := g.path(nil, fi, ti, g.allMembers(), g.NewScratch())
	return ok
}

// CounterflowEdges returns the number of counterflow edges.
func (g *Graph) CounterflowEdges() int { return len(g.cf) }

// SizeBytes estimates the graph's resident memory: its materialized edges,
// the endpoint arrays, the adjacency lists and the counterflow list. A
// composed graph's Edge values exist only here — the block set keeps its
// edges packed — so they are counted in full. Like BlockSet.SizeBytes the
// estimate is biased low: it ignores the LTPs and the node index. The
// session adds it for every universe graph it memoizes.
func (g *Graph) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*g)) + int64(len(g.Edges))*(edgeBytes+4*4) + int64(len(g.cf))*4
}

// edgeBytes is the size of one materialized Edge.
const edgeBytes = int64(unsafe.Sizeof(Edge{}))

// Stats summarizes the graph for reporting (the quantities of Table 2).
type Stats struct {
	Nodes            int
	Edges            int
	CounterflowEdges int
}

// Stats returns the node/edge counts of the graph.
func (g *Graph) Stats() Stats {
	return Stats{Nodes: len(g.Nodes), Edges: len(g.Edges), CounterflowEdges: g.CounterflowEdges()}
}

// String renders a deterministic textual dump of the graph.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SuG [%s]: %d nodes, %d edges (%d counterflow)\n",
		g.Setting, len(g.Nodes), len(g.Edges), g.CounterflowEdges())
	lines := make([]string, len(g.Edges))
	for i, e := range g.Edges {
		lines[i] = "  " + e.String()
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}

// effectiveSet widens an attribute-set function to the full relation
// attribute set under tuple granularity. Undefined (⊥) stays undefined:
// the corresponding operation kind does not occur in instantiations of the
// statement at all, regardless of granularity.
func effectiveSet(g Granularity, schema *relschema.Schema, rel string, o btp.OptAttrs) btp.OptAttrs {
	if !o.Defined || g == AttrGranularity {
		return o
	}
	return btp.AttrsOf(schema.Attrs(rel))
}

// builder carries construction state for one summary graph.
type builder struct {
	setting Setting
	schema  *relschema.Schema
}

// ncDepConds is the non-counterflow side condition of Algorithm 1: some
// pair of (read/write/predicate-read, write) attribute sets of q_i and q_j
// intersect.
func (b *builder) ncDepConds(qi, qj *btp.Stmt) bool {
	rs := func(q *btp.Stmt) btp.OptAttrs {
		return effectiveSet(b.setting.Granularity, b.schema, q.Rel, q.ReadSet)
	}
	ws := func(q *btp.Stmt) btp.OptAttrs {
		return effectiveSet(b.setting.Granularity, b.schema, q.Rel, q.WriteSet)
	}
	prs := func(q *btp.Stmt) btp.OptAttrs {
		return effectiveSet(b.setting.Granularity, b.schema, q.Rel, q.PReadSet)
	}
	return ws(qi).Intersects(ws(qj)) ||
		ws(qi).Intersects(rs(qj)) ||
		ws(qi).Intersects(prs(qj)) ||
		rs(qi).Intersects(ws(qj)) ||
		prs(qi).Intersects(ws(qj))
}

// cDepConds is the counterflow side condition of Algorithm 1, evaluated on
// statement occurrences so that the q_k <_P q_i order check works on
// unfolded programs. A counterflow dependency requires a (predicate)
// rw-antidependency; for plain rw-antidependencies, matching foreign-key
// annotations in both programs can rule the counterflow out (the two
// transactions would have performed conflicting writes on the common
// foreign-key target earlier, so MVRC's dirty-write rule orders them).
func (b *builder) cDepConds(pi *btp.LTP, qi *btp.StmtOcc, pj *btp.LTP, qj *btp.StmtOcc) bool {
	prsI := effectiveSet(b.setting.Granularity, b.schema, qi.Stmt.Rel, qi.Stmt.PReadSet)
	wsJ := effectiveSet(b.setting.Granularity, b.schema, qj.Stmt.Rel, qj.Stmt.WriteSet)
	if prsI.Intersects(wsJ) {
		return true
	}
	rsI := effectiveSet(b.setting.Granularity, b.schema, qi.Stmt.Rel, qi.Stmt.ReadSet)
	if rsI.Intersects(wsJ) {
		if b.setting.UseForeignKeys && b.fkSuppressed(pi, qi, pj, qj) {
			return false
		}
		return true
	}
	return false
}

// fkSuppressed implements the foreign-key loop of cDepConds: it reports
// whether there are annotations q_k = f(q_i) in P_i and q_l = f(q_j) in P_j
// over the same foreign key f, with type(q_k), type(q_l) in
// {key upd, key del, ins} and occurrences of q_k before q_i and q_l before
// q_j in the respective LTPs.
func (b *builder) fkSuppressed(pi *btp.LTP, qi *btp.StmtOcc, pj *btp.LTP, qj *btp.StmtOcc) bool {
	suppressorType := func(t btp.StmtType) bool {
		return t == btp.KeyUpd || t == btp.KeyDel || t == btp.Ins
	}
	for _, ci := range pi.FKs() {
		if ci.Src != qi.Stmt || !suppressorType(ci.Dst.Type) {
			continue
		}
		if !pi.HasOccurrenceBefore(ci.Dst, qi.Pos) {
			continue
		}
		for _, cj := range pj.FKs() {
			if cj.FK != ci.FK || cj.Src != qj.Stmt || !suppressorType(cj.Dst.Type) {
				continue
			}
			if pj.HasOccurrenceBefore(cj.Dst, qj.Pos) {
				return true
			}
		}
	}
	return false
}

// appendPairEdges appends to dst every edge of Algorithm 1 between the
// ordered pair (pi, pj): the inner qi × qj loops of constructSuG, each edge
// packed as its occurrence positions and class. Edges between two LTPs
// depend only on the pair itself (statement types, attribute sets and the
// LTPs' own foreign-key annotations), never on which other LTPs are
// present — the property BlockSet and Compose exploit.
func (b *builder) appendPairEdges(dst []packedEdge, pi, pj *btp.LTP) []packedEdge {
	for x, qi := range pi.Stmts {
		for y, qj := range pj.Stmts {
			if qi.Stmt.Rel != qj.Stmt.Rel {
				continue
			}
			nc := NcDepTable[qi.Stmt.Type][qj.Stmt.Type]
			if nc == Yes || (nc == Cond && b.ncDepConds(qi.Stmt, qj.Stmt)) {
				dst = append(dst, packedEdge{from: uint32(x), to: uint32(y)})
			}
			c := CDepTable[qi.Stmt.Type][qj.Stmt.Type]
			if c == Yes || (c == Cond && b.cDepConds(pi, qi, pj, qj)) {
				dst = append(dst, packedEdge{from: uint32(x), to: uint32(y) | counterflowBit})
			}
		}
	}
	return dst
}

// Build constructs the summary graph SuG(P) for the given LTPs under the
// given setting (Algorithm 1, function constructSuG). The schema is needed
// for tuple-granularity widening and foreign-key metadata.
func Build(schema *relschema.Schema, ltps []*btp.LTP, setting Setting) *Graph {
	b := &builder{setting: setting, schema: schema}
	g := &Graph{
		Setting: setting,
		Nodes:   ltps,
		schema:  schema,
		nodeIdx: make(map[*btp.LTP]int, len(ltps)),
	}
	for i, l := range ltps {
		g.nodeIdx[l] = i
	}
	var blk []packedEdge
	for fi, pi := range ltps {
		for ti, pj := range ltps {
			blk = b.appendPairEdges(blk[:0], pi, pj)
			for _, pe := range blk {
				g.Edges = append(g.Edges, pe.edge(pi, pj))
				g.edgeFrom = append(g.edgeFrom, int32(fi))
				g.edgeTo = append(g.edgeTo, int32(ti))
			}
		}
	}
	g.index()
	return g
}

// index fills the adjacency lists and the counterflow list. It is called
// once per graph — including once per composed subset graph of a streaming
// enumeration — so it carves every list from one backing array. The
// reachability closures are not part of the index: detect computes them
// per query, over the nodes the query selects.
func (g *Graph) index() {
	n := len(g.Nodes)
	m := len(g.Edges)
	// Degree-counted adjacency: out-lists, in-lists and the counterflow
	// list share one backing array.
	deg := make([]int, 2*n)
	ncf := 0
	for ei := range g.Edges {
		deg[g.edgeFrom[ei]]++
		deg[n+int(g.edgeTo[ei])]++
		if g.Edges[ei].Class == Counterflow {
			ncf++
		}
	}
	lists := make([][]int32, 2*n)
	g.out, g.in = lists[:n:n], lists[n:]
	backing := make([]int32, 2*m+ncf)
	off := 0
	for i, d := range deg {
		lists[i] = backing[off : off : off+d]
		off += d
	}
	g.cf = backing[off:off:len(backing)]
	for ei := range g.Edges {
		fi, ti := g.edgeFrom[ei], g.edgeTo[ei]
		g.out[fi] = append(g.out[fi], int32(ei))
		g.in[ti] = append(g.in[ti], int32(ei))
		if g.Edges[ei].Class == Counterflow {
			g.cf = append(g.cf, int32(ei))
		}
	}
}
