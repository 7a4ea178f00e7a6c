// Package summary implements the paper's primary contribution: the summary
// graph SuG(P) for a set of linear transaction programs (Algorithm 1 with
// the condition tables of Table 1), and the robustness test against MVRC
// based on the absence of type-II cycles (Algorithm 2 / Theorem 6.4). It
// also implements the weaker type-I condition of Alomari and Fekete [3] as
// the comparison baseline of Section 7.
//
// Beyond the paper's algorithms the package carries the performance layers
// the rest of the system is built on (see docs/ARCHITECTURE.md):
//
//   - Build (graph.go) is the literal Algorithm 1: one summary graph from
//     scratch. It remains the oracle every optimized path is tested against.
//   - BlockSet (compose.go) caches Algorithm 1's edge derivation per
//     ordered LTP pair and analysis setting — edges between two programs
//     never depend on which other programs are present, so any subset graph
//     is a concatenation of cached pair blocks (Compose).
//   - The cycle search of Algorithm 2 (detect.go) is one routine over the
//     subgraph induced by a node bitmask: Graph.Robust runs it over every
//     node, and Graph.RobustWitness over the subsets of a composed universe
//     graph — no per-subset graph, no allocation for a robust verdict — for
//     the exponential enumeration of Figures 6 and 7.
//
// Every construction and detection here runs on the calling goroutine, as
// does the lattice walk one layer up.
package summary

import "repro/internal/btp"

// Tri is a three-valued table entry: a dependency between two statement
// types is always possible (Yes), never possible (No), or possible subject
// to the attribute-intersection / foreign-key side conditions (Cond, the
// paper's ⊥).
type Tri int

// The three table values.
const (
	No Tri = iota
	Yes
	Cond
)

// String renders the entry as in Table 1.
func (t Tri) String() string {
	switch t {
	case No:
		return "false"
	case Yes:
		return "true"
	default:
		return "⊥"
	}
}

// Statement types in the row/column order of Table 1.
var tableOrder = [btp.NumStmtTypes]btp.StmtType{
	btp.Ins, btp.KeySel, btp.PredSel, btp.KeyUpd, btp.PredUpd, btp.KeyDel, btp.PredDel,
}

// NcDepTable is Table (1a): whether statements of type row (q_i) and column
// (q_j) over the same relation can admit a non-counterflow dependency from
// an operation of q_i to an operation of q_j. Cond entries defer to
// ncDepConds (Algorithm 1).
//
// Index with NcDepTable[q_i.Type][q_j.Type].
var NcDepTable = [btp.NumStmtTypes][btp.NumStmtTypes]Tri{
	//                 ins   key sel pred sel key upd pred upd key del pred del
	btp.Ins:     {No, Cond, Yes, Cond, Yes, Cond, Yes},
	btp.KeySel:  {No, No, No, Cond, Cond, Cond, Cond},
	btp.PredSel: {Yes, No, No, Cond, Cond, Yes, Yes},
	btp.KeyUpd:  {No, Cond, Cond, Cond, Cond, Cond, Cond},
	btp.PredUpd: {Yes, Cond, Cond, Cond, Cond, Yes, Yes},
	btp.KeyDel:  {No, No, Yes, No, Yes, No, Yes},
	btp.PredDel: {Yes, No, Yes, Cond, Yes, Yes, Yes},
}

// CDepTable is Table (1b): whether statements of type row (q_i) and column
// (q_j) over the same relation can admit a counterflow dependency. By
// Lemma 4.1 only (predicate) rw-antidependencies can be counterflow, so all
// rows whose instantiations end in a write chunk that covers the read
// (ins, key upd, key del) are No. Cond entries defer to cDepConds.
var CDepTable = [btp.NumStmtTypes][btp.NumStmtTypes]Tri{
	//                 ins   key sel pred sel key upd pred upd key del pred del
	btp.Ins:     {No, No, No, No, No, No, No},
	btp.KeySel:  {No, No, No, Cond, Cond, Cond, Cond},
	btp.PredSel: {Yes, No, No, Cond, Cond, Yes, Yes},
	btp.KeyUpd:  {No, No, No, No, No, No, No},
	btp.PredUpd: {Yes, No, No, Cond, Cond, Yes, Yes},
	btp.KeyDel:  {No, No, No, No, No, No, No},
	btp.PredDel: {Yes, No, No, Cond, Cond, Yes, Yes},
}
