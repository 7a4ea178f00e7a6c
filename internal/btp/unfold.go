package btp

import (
	"fmt"
	"strings"
)

// StmtOcc is one occurrence of a statement within an LTP. A statement can
// occur several times in an LTP when loop unfolding duplicates it; each
// occurrence has its own position, which Algorithm 2 compares with <_P.
type StmtOcc struct {
	// Stmt is the underlying BTP statement.
	Stmt *Stmt
	// Pos is the zero-based position of this occurrence within the LTP.
	Pos int
}

// Before reports whether o occurs strictly before p in the LTP (o <_P p).
func (o *StmtOcc) Before(p *StmtOcc) bool { return o.Pos < p.Pos }

// String renders the occurrence as "q3@2".
func (o *StmtOcc) String() string { return fmt.Sprintf("%s@%d", o.Stmt.Name, o.Pos) }

// LTP is a linear transaction program: a branch- and loop-free sequence of
// statement occurrences obtained from a BTP by unfolding (Section 6.1). The
// empty sequence is a valid LTP (e.g. the zero-iteration unfolding of a
// program that is a single loop).
type LTP struct {
	// Name identifies the unfolding, e.g. "PlaceBid1".
	Name string
	// Origin is the BTP this LTP was unfolded from; nil for LTPs built
	// directly.
	Origin *Program
	// Stmts is the occurrence sequence.
	Stmts []*StmtOcc
}

// Statements returns the underlying statement of every occurrence.
func (l *LTP) Statements() []*Stmt {
	out := make([]*Stmt, len(l.Stmts))
	for i, o := range l.Stmts {
		out[i] = o.Stmt
	}
	return out
}

// OriginName returns the name of the originating BTP, falling back to the
// LTP's own name.
func (l *LTP) OriginName() string {
	if l.Origin != nil {
		return l.Origin.Name
	}
	return l.Name
}

// FKs returns the foreign-key annotations inherited from the origin BTP.
// Annotations whose statements do not occur in this unfolding are still
// returned; they are simply vacuous for it.
func (l *LTP) FKs() []FKConstraint {
	if l.Origin == nil {
		return nil
	}
	return l.Origin.FKs
}

// Occurrences returns every occurrence of the given statement in the LTP,
// in position order.
func (l *LTP) Occurrences(q *Stmt) []*StmtOcc {
	var out []*StmtOcc
	for _, o := range l.Stmts {
		if o.Stmt == q {
			out = append(out, o)
		}
	}
	return out
}

// HasOccurrenceBefore reports whether some occurrence of q appears at a
// position strictly before pos. Used by the foreign-key suppression check
// of Algorithm 1 lifted to occurrence level.
func (l *LTP) HasOccurrenceBefore(q *Stmt, pos int) bool {
	for _, o := range l.Stmts {
		if o.Pos >= pos {
			return false
		}
		if o.Stmt == q {
			return true
		}
	}
	return false
}

// String renders the LTP as "Name := q1; q2; ...".
func (l *LTP) String() string {
	names := make([]string, len(l.Stmts))
	for i, o := range l.Stmts {
		names[i] = o.Stmt.Name
	}
	body := strings.Join(names, "; ")
	if body == "" {
		body = "ε"
	}
	return l.Name + " := " + body
}

// signature is a canonical key for de-duplicating identical unfoldings.
func (l *LTP) signature() string {
	names := make([]string, len(l.Stmts))
	for i, o := range l.Stmts {
		names[i] = o.Stmt.Name
	}
	return strings.Join(names, "\x00")
}

// NewLTP builds an LTP directly from a statement sequence (positions are
// assigned in order). Origin is optional.
func NewLTP(name string, origin *Program, qs ...*Stmt) *LTP {
	l := &LTP{Name: name, Origin: origin}
	for i, q := range qs {
		l.Stmts = append(l.Stmts, &StmtOcc{Stmt: q, Pos: i})
	}
	return l
}

// DefaultUnfoldBound is the loop-unfolding bound of Proposition 6.1: two
// iterations per loop suffice for robustness detection against MVRC.
const DefaultUnfoldBound = 2

// MaxUnfoldBound is the largest bound a service request may ask for. The
// LTP count grows exponentially in the bound — on TPC-C, bound 16 already
// costs ~40 MB to analyse and bound 32 ~700 MB — and no analysis needs
// more than a few iterations beyond Proposition 6.1's two.
const MaxUnfoldBound = 4

// Unfold computes the set of LTPs obtained from p by replacing every
// loop(P1) with 0..bound repetitions of (an unfolding of) P1, every
// (P1 | P2) with an unfolding of P1 or of P2, and every (P1 | ε) with an
// unfolding of P1 or the empty sequence (Section 6.1).
//
// Unfoldings are returned in a deterministic order (first branch first,
// fewer loop iterations first) and named Name1, Name2, ... — except that a
// program with a single unfolding keeps its plain name. Exact duplicate
// unfoldings (possible with degenerate programs such as (q | q)) are
// removed.
func Unfold(p *Program, bound int) []*LTP {
	if bound < 0 {
		bound = 0
	}
	if isLinear(p.Body) {
		// A loop- and branch-free body has exactly one unfolding: itself.
		// Skipping the general enumeration (and its signature-keyed dedup
		// map) matters because unfolding re-runs per analysis session and
		// sits on the cold time-to-first-verdict path of the streaming
		// enumeration — and every benchmark program without a loop or
		// branch takes this path.
		var buf [16]*Stmt
		qs := buf[:0]
		p.Body.collectStmts(&qs)
		l := &LTP{Name: p.Name, Origin: p, Stmts: make([]*StmtOcc, len(qs))}
		for i, q := range qs {
			l.Stmts[i] = &StmtOcc{Stmt: q, Pos: i}
		}
		return []*LTP{l}
	}
	seqs := unfoldNode(p.Body, bound)
	seen := make(map[string]bool, len(seqs))
	var out []*LTP
	for _, qs := range seqs {
		l := &LTP{Origin: p}
		for i, q := range qs {
			l.Stmts = append(l.Stmts, &StmtOcc{Stmt: q, Pos: i})
		}
		sig := l.signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, l)
	}
	if len(out) == 1 {
		out[0].Name = p.Name
	} else {
		for i, l := range out {
			l.Name = fmt.Sprintf("%s%d", p.Name, i+1)
		}
	}
	return out
}

// Unfold2 applies Unfold with the paper's bound of two (Unfold≤2).
func Unfold2(p *Program) []*LTP { return Unfold(p, DefaultUnfoldBound) }

// UnfoldAll unfolds every program of the set and concatenates the results,
// preserving program order.
func UnfoldAll(ps []*Program, bound int) []*LTP {
	var out []*LTP
	for _, p := range ps {
		out = append(out, Unfold(p, bound)...)
	}
	return out
}

// UnfoldAll2 is UnfoldAll with the default bound of two.
func UnfoldAll2(ps []*Program) []*LTP { return UnfoldAll(ps, DefaultUnfoldBound) }

// isLinear reports whether the subtree is free of loops and branches, i.e.
// already an LTP.
func isLinear(n Node) bool {
	switch n := n.(type) {
	case *StmtNode:
		return true
	case *Seq:
		for _, item := range n.Items {
			if !isLinear(item) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// unfoldNode returns every statement sequence derivable from the node under
// the given loop bound. The enumeration order is deterministic: for a
// choice, the first branch's unfoldings come first; for an optional, the
// non-empty unfoldings come first; for a loop, unfoldings with fewer
// iterations come first.
func unfoldNode(n Node, bound int) [][]*Stmt {
	switch n := n.(type) {
	case *StmtNode:
		return [][]*Stmt{{n.Stmt}}
	case *Seq:
		acc := [][]*Stmt{{}}
		for _, item := range n.Items {
			next := unfoldNode(item, bound)
			var grown [][]*Stmt
			for _, prefix := range acc {
				for _, suffix := range next {
					seq := make([]*Stmt, 0, len(prefix)+len(suffix))
					seq = append(seq, prefix...)
					seq = append(seq, suffix...)
					grown = append(grown, seq)
				}
			}
			acc = grown
		}
		return acc
	case *Choice:
		return append(unfoldNode(n.A, bound), unfoldNode(n.B, bound)...)
	case *Optional:
		return append(unfoldNode(n.A, bound), []*Stmt{})
	case *Loop:
		body := unfoldNode(n.Body, bound)
		// k repetitions for k = 0..bound; each repetition independently
		// picks a body unfolding.
		out := [][]*Stmt{{}}
		reps := [][]*Stmt{{}}
		for k := 1; k <= bound; k++ {
			var grown [][]*Stmt
			for _, prefix := range reps {
				for _, b := range body {
					seq := make([]*Stmt, 0, len(prefix)+len(b))
					seq = append(seq, prefix...)
					seq = append(seq, b...)
					grown = append(grown, seq)
				}
			}
			reps = grown
			out = append(out, reps...)
		}
		return out
	default:
		panic(fmt.Sprintf("btp: unknown node type %T", n))
	}
}
