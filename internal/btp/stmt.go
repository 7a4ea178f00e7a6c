// Package btp implements the paper's core formalism of Basic Transaction
// Programs (Section 5): statements over relations annotated with read,
// write and predicate-read attribute sets, composed with sequencing,
// conditional branching, optional execution and loops, plus foreign-key
// annotations of the form q_j = f(q_i).
//
// The package also implements Linear Transaction Programs (LTPs, Section
// 6.1) and the Unfold≤2 transformation (Proposition 6.1) that reduces
// robustness of a BTP set to robustness of a finite LTP set.
package btp

import (
	"fmt"

	"repro/internal/relschema"
)

// StmtType enumerates the seven statement types of Figure 5.
type StmtType int

// The statement types. Apart from Ins, every statement starts with a
// retrieval that is either key-based (exactly one tuple) or predicate-based
// (arbitrarily many tuples).
const (
	Ins StmtType = iota
	KeySel
	PredSel
	KeyUpd
	PredUpd
	KeyDel
	PredDel
)

// NumStmtTypes is the number of distinct statement types.
const NumStmtTypes = 7

// String renders the type in the paper's notation.
func (t StmtType) String() string {
	switch t {
	case Ins:
		return "ins"
	case KeySel:
		return "key sel"
	case PredSel:
		return "pred sel"
	case KeyUpd:
		return "key upd"
	case PredUpd:
		return "pred upd"
	case KeyDel:
		return "key del"
	case PredDel:
		return "pred del"
	default:
		return fmt.Sprintf("StmtType(%d)", int(t))
	}
}

// IsKeyBased reports whether the statement type addresses exactly one tuple
// through its primary key. Following Section 5.1, inserts are key-based:
// they create exactly one tuple identified by its key.
func (t StmtType) IsKeyBased() bool {
	switch t {
	case Ins, KeySel, KeyUpd, KeyDel:
		return true
	default:
		return false
	}
}

// IsPredBased reports whether the statement type performs a predicate read.
func (t StmtType) IsPredBased() bool {
	switch t {
	case PredSel, PredUpd, PredDel:
		return true
	default:
		return false
	}
}

// HasWrite reports whether instantiations of this statement type contain
// write operations (W, I or D).
func (t StmtType) HasWrite() bool {
	switch t {
	case Ins, KeyUpd, PredUpd, KeyDel, PredDel:
		return true
	default:
		return false
	}
}

// IsReadOnly reports whether the statement type only observes the database.
// These are exactly the types whose last operation is an R- or PR-operation,
// the set {key sel, pred sel, pred upd, pred del} used in Theorem 6.4 is
// different — see EndsWithReadOrPredRead on Stmt.
func (t StmtType) IsReadOnly() bool {
	return t == KeySel || t == PredSel
}

// OptAttrs is an attribute set that may be undefined (the paper's ⊥).
// The zero value is undefined.
type OptAttrs struct {
	// Defined distinguishes ⊥ (false) from a possibly empty set (true).
	Defined bool
	// Set is the attribute set; meaningful only when Defined.
	Set relschema.AttrSet
}

// Undefined is the ⊥ value.
func Undefined() OptAttrs { return OptAttrs{} }

// Attrs wraps a defined attribute set.
func Attrs(names ...string) OptAttrs {
	return OptAttrs{Defined: true, Set: relschema.NewAttrSet(names...)}
}

// AttrsOf wraps an existing defined attribute set.
func AttrsOf(s relschema.AttrSet) OptAttrs {
	return OptAttrs{Defined: true, Set: s}
}

// Intersects reports whether both sides are defined and share an attribute.
// ⊥ never intersects anything, matching the conventions of Algorithm 1.
func (o OptAttrs) Intersects(p OptAttrs) bool {
	if !o.Defined || !p.Defined {
		return false
	}
	return o.Set.Intersects(p.Set)
}

// String renders the value as ⊥ or the attribute set.
func (o OptAttrs) String() string {
	if !o.Defined {
		return "⊥"
	}
	return o.Set.String()
}

// Stmt is a BTP statement q with its associated functions rel(q), type(q),
// ReadSet(q), WriteSet(q) and PReadSet(q) (Section 5.1).
type Stmt struct {
	// Name is the statement's label, e.g. "q1". Names are unique within a
	// program and used for FK annotations and reporting.
	Name string
	// Type is type(q).
	Type StmtType
	// Rel is rel(q).
	Rel string
	// ReadSet, WriteSet, PReadSet are the attribute-set functions; each may
	// be ⊥ according to the constraints of Figure 5.
	ReadSet  OptAttrs
	WriteSet OptAttrs
	PReadSet OptAttrs
}

// String renders the statement compactly.
func (q *Stmt) String() string {
	return fmt.Sprintf("%s: %s %s R=%s W=%s PR=%s",
		q.Name, q.Type, q.Rel, q.ReadSet, q.WriteSet, q.PReadSet)
}

// EndsWithReadOrPredRead reports whether the last operation of any
// instantiation of q is an R- or PR-operation, i.e. type(q) is in
// {key sel, pred sel, pred upd, pred del} — wait: pred upd ends with a W.
//
// Theorem 6.4 uses the set {key sel, pred sel, pred upd, pred del}: these
// are the types whose instantiations *begin* with (and may entirely consist
// of) R- or PR-operations; in particular a pred upd's chunk starts with a
// predicate read and may update zero tuples, and a pred del's chunk starts
// with a predicate read. The relevant property for the theorem is that the
// operation b_{i-1} giving rise to the dependency can be an R- or
// PR-operation.
func (q *Stmt) EndsWithReadOrPredRead() bool {
	switch q.Type {
	case KeySel, PredSel, PredUpd, PredDel:
		return true
	default:
		return false
	}
}

// Validate checks the statement against the schema and the constraints of
// Figure 5 relating type(q) to the three attribute-set functions.
func (q *Stmt) Validate(schema *relschema.Schema) error {
	if q.Name == "" {
		return fmt.Errorf("btp: statement has no name")
	}
	rel := schema.Relation(q.Rel)
	if rel == nil {
		return fmt.Errorf("btp: statement %s: unknown relation %q", q.Name, q.Rel)
	}
	// The checks are plain helper calls rather than the more natural
	// closure-over-a-rule-table shape: Validate re-runs per session (the
	// analysis memoizes per Session, not per Program), and the closure and
	// slice allocations measurably dominated cold time-to-first-verdict of
	// the streaming enumeration.
	if err := q.checkSubset(rel, "ReadSet", q.ReadSet); err != nil {
		return err
	}
	if err := q.checkSubset(rel, "WriteSet", q.WriteSet); err != nil {
		return err
	}
	if err := q.checkSubset(rel, "PReadSet", q.PReadSet); err != nil {
		return err
	}
	// Figure 5 constraints.
	switch q.Type {
	case Ins:
		// Figure 5 prescribes WriteSet = Attr(rel), but the paper's own
		// TPC-C formalization (Figure 17) inserts into Orders without
		// setting o_carrier_id, so we only require a non-empty subset.
		return firstErr(q.requireDef("WriteSet", q.WriteSet, true),
			q.requireUndef("ReadSet", q.ReadSet), q.requireUndef("PReadSet", q.PReadSet))
	case KeyDel:
		return firstErr(q.requireAll(rel, "WriteSet", q.WriteSet),
			q.requireUndef("ReadSet", q.ReadSet), q.requireUndef("PReadSet", q.PReadSet))
	case PredDel:
		return firstErr(q.requireAll(rel, "WriteSet", q.WriteSet),
			q.requireUndef("ReadSet", q.ReadSet), q.requireDef("PReadSet", q.PReadSet, false))
	case KeySel:
		return firstErr(q.requireUndef("WriteSet", q.WriteSet),
			q.requireDef("ReadSet", q.ReadSet, false), q.requireUndef("PReadSet", q.PReadSet))
	case PredSel:
		return firstErr(q.requireUndef("WriteSet", q.WriteSet),
			q.requireDef("ReadSet", q.ReadSet, false), q.requireDef("PReadSet", q.PReadSet, false))
	case KeyUpd:
		return firstErr(q.requireDef("WriteSet", q.WriteSet, true),
			q.requireDef("ReadSet", q.ReadSet, false), q.requireUndef("PReadSet", q.PReadSet))
	case PredUpd:
		return firstErr(q.requireDef("WriteSet", q.WriteSet, true),
			q.requireDef("ReadSet", q.ReadSet, false), q.requireDef("PReadSet", q.PReadSet, false))
	default:
		return fmt.Errorf("btp: statement %s: invalid type %d", q.Name, int(q.Type))
	}
}

// firstErr returns the first non-nil error of the three per-type checks.
func firstErr(a, b, c error) error {
	if a != nil {
		return a
	}
	if b != nil {
		return b
	}
	return c
}

func (q *Stmt) checkSubset(rel *relschema.Relation, label string, o OptAttrs) error {
	if o.Defined && !o.Set.SubsetOf(rel.Attrs) {
		return fmt.Errorf("btp: statement %s: %s %v not a subset of Attr(%s)", q.Name, label, o.Set, q.Rel)
	}
	return nil
}

func (q *Stmt) requireUndef(label string, o OptAttrs) error {
	if o.Defined {
		return fmt.Errorf("btp: statement %s (%s): %s must be ⊥", q.Name, q.Type, label)
	}
	return nil
}

func (q *Stmt) requireDef(label string, o OptAttrs, nonEmpty bool) error {
	if !o.Defined {
		return fmt.Errorf("btp: statement %s (%s): %s must be defined", q.Name, q.Type, label)
	}
	if nonEmpty && o.Set.Empty() {
		return fmt.Errorf("btp: statement %s (%s): %s must be non-empty", q.Name, q.Type, label)
	}
	return nil
}

func (q *Stmt) requireAll(rel *relschema.Relation, label string, o OptAttrs) error {
	if !o.Defined || !o.Set.Equal(rel.Attrs) {
		return fmt.Errorf("btp: statement %s (%s): %s must equal Attr(%s)", q.Name, q.Type, label, q.Rel)
	}
	return nil
}

// Convenience constructors. Each fills the attribute-set functions per
// Figure 5; insert and delete constructors derive the full write set from
// the schema.

// NewIns builds an insertion statement over rel. WriteSet is Attr(rel).
func NewIns(schema *relschema.Schema, name, rel string) *Stmt {
	return &Stmt{Name: name, Type: Ins, Rel: rel,
		WriteSet: AttrsOf(schema.Attrs(rel).Clone())}
}

// NewInsAttrs builds an insertion statement that sets only the listed
// attributes, for INSERT statements that leave some columns at their
// defaults (e.g. TPC-C's NewOrder insert into Orders, which does not set
// o_carrier_id — see Figure 17).
func NewInsAttrs(name, rel string, write ...string) *Stmt {
	return &Stmt{Name: name, Type: Ins, Rel: rel, WriteSet: Attrs(write...)}
}

// NewKeyDel builds a key-based deletion statement over rel.
func NewKeyDel(schema *relschema.Schema, name, rel string) *Stmt {
	return &Stmt{Name: name, Type: KeyDel, Rel: rel,
		WriteSet: AttrsOf(schema.Attrs(rel).Clone())}
}

// NewPredDel builds a predicate-based deletion over rel with the given
// predicate attributes.
func NewPredDel(schema *relschema.Schema, name, rel string, pread ...string) *Stmt {
	return &Stmt{Name: name, Type: PredDel, Rel: rel,
		WriteSet: AttrsOf(schema.Attrs(rel).Clone()),
		PReadSet: Attrs(pread...)}
}

// NewKeySel builds a key-based selection over rel reading the given
// attributes.
func NewKeySel(name, rel string, read ...string) *Stmt {
	return &Stmt{Name: name, Type: KeySel, Rel: rel, ReadSet: Attrs(read...)}
}

// NewPredSel builds a predicate-based selection over rel.
func NewPredSel(name, rel string, pread, read []string) *Stmt {
	return &Stmt{Name: name, Type: PredSel, Rel: rel,
		PReadSet: Attrs(pread...), ReadSet: Attrs(read...)}
}

// NewKeyUpd builds a key-based update over rel.
func NewKeyUpd(name, rel string, read, write []string) *Stmt {
	return &Stmt{Name: name, Type: KeyUpd, Rel: rel,
		ReadSet: Attrs(read...), WriteSet: Attrs(write...)}
}

// NewPredUpd builds a predicate-based update over rel.
func NewPredUpd(name, rel string, pread, read, write []string) *Stmt {
	return &Stmt{Name: name, Type: PredUpd, Rel: rel,
		PReadSet: Attrs(pread...), ReadSet: Attrs(read...), WriteSet: Attrs(write...)}
}

// FKConstraint is a foreign-key annotation q_j = f(q_i) on a program
// (Section 5.1): every tuple accessed by an instantiation of Dst equals the
// f-image of every tuple accessed by an instantiation of Src. Src must be
// over dom(f), Dst over range(f), and Dst must be key-based.
type FKConstraint struct {
	// FK is the name of the foreign key f.
	FK string
	// Src is q_i, the statement over dom(f).
	Src *Stmt
	// Dst is q_j, the key-based statement over range(f).
	Dst *Stmt
}

// String renders the annotation in the paper's "q_j = f(q_i)" form.
func (c FKConstraint) String() string {
	return fmt.Sprintf("%s = %s(%s)", c.Dst.Name, c.FK, c.Src.Name)
}
