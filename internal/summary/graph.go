package summary

import (
	"fmt"
	"sort"
	"strings"

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
	// out[i] lists indices into Edges of edges leaving node i.
	out [][]int
	// in[i] lists indices into Edges of edges entering node i.
	in [][]int
	// reach[i] is the forward reachability bitset of node i over all
	// edges, including i itself (reflexive-transitive closure).
	reach []bitset
	// coreach[i] is the backward closure: nodes from which i is reachable,
	// including i itself.
	coreach []bitset
}

// bitset is a simple fixed-size bitset over node indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

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
func (g *Graph) Reachable(from, to *btp.LTP) bool {
	fi, ti := g.NodeIndex(from), g.NodeIndex(to)
	if fi < 0 || ti < 0 {
		return false
	}
	return g.reach[fi].has(ti)
}

// CounterflowEdges returns the number of counterflow edges.
func (g *Graph) CounterflowEdges() int {
	n := 0
	for _, e := range g.Edges {
		if e.Class == Counterflow {
			n++
		}
	}
	return n
}

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
// ordered pair (pi, pj): the inner qi × qj loops of constructSuG. Edges
// between two LTPs depend only on the pair itself (statement types,
// attribute sets and the LTPs' own foreign-key annotations), never on which
// other LTPs are present — the property BlockSet and Compose exploit.
func (b *builder) appendPairEdges(dst []Edge, pi, pj *btp.LTP) []Edge {
	for _, qi := range pi.Stmts {
		for _, qj := range pj.Stmts {
			if qi.Stmt.Rel != qj.Stmt.Rel {
				continue
			}
			nc := NcDepTable[qi.Stmt.Type][qj.Stmt.Type]
			if nc == Yes || (nc == Cond && b.ncDepConds(qi.Stmt, qj.Stmt)) {
				dst = append(dst, Edge{
					From: pi, FromStmt: qi, Class: NonCounterflow, ToStmt: qj, To: pj,
				})
			}
			c := CDepTable[qi.Stmt.Type][qj.Stmt.Type]
			if c == Yes || (c == Cond && b.cDepConds(pi, qi, pj, qj)) {
				dst = append(dst, Edge{
					From: pi, FromStmt: qi, Class: Counterflow, ToStmt: qj, To: pj,
				})
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
	for fi, pi := range ltps {
		for ti, pj := range ltps {
			before := len(g.Edges)
			g.Edges = b.appendPairEdges(g.Edges, pi, pj)
			for range g.Edges[before:] {
				g.edgeFrom = append(g.edgeFrom, int32(fi))
				g.edgeTo = append(g.edgeTo, int32(ti))
			}
		}
	}
	g.index()
	return g
}

// index fills adjacency lists and reachability closures. It is called once
// per graph — including once per composed subset graph during subset
// enumeration — so it allocates flat backing arrays instead of growing
// per-node slices.
func (g *Graph) index() {
	n := len(g.Nodes)
	m := len(g.Edges)
	// Degree-counted adjacency: one backing array per direction.
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	for ei := range g.Edges {
		outDeg[g.edgeFrom[ei]]++
		inDeg[g.edgeTo[ei]]++
	}
	g.out = make([][]int, n)
	g.in = make([][]int, n)
	outBacking := make([]int, m)
	inBacking := make([]int, m)
	oo, io := 0, 0
	for i := 0; i < n; i++ {
		g.out[i] = outBacking[oo : oo : oo+outDeg[i]]
		oo += outDeg[i]
		g.in[i] = inBacking[io : io : io+inDeg[i]]
		io += inDeg[i]
	}
	for ei := range g.Edges {
		fi := g.edgeFrom[ei]
		ti := g.edgeTo[ei]
		g.out[fi] = append(g.out[fi], ei)
		g.in[ti] = append(g.in[ti], ei)
	}
	// Reflexive-transitive closure over node-level adjacency.
	g.reach = closures(g.edgeFrom, g.edgeTo, n)
	g.coreach = closures(g.edgeTo, g.edgeFrom, n)
}

// closures computes, for each node, the reflexive-transitive closure of the
// edge relation given by parallel endpoint arrays (swap the arguments for
// the backward closure) by iterating bitset unions to a fixpoint. All
// bitsets are carved from one backing array.
func closures(from, to []int32, n int) []bitset {
	words := (n + 63) / 64
	backing := make([]uint64, n*words)
	out := make([]bitset, n)
	for i := 0; i < n; i++ {
		out[i] = bitset(backing[i*words : (i+1)*words])
		out[i].set(i)
	}
	for ei := range from {
		out[from[ei]].set(int(to[ei]))
	}
	fixpoint(out)
	return out
}
