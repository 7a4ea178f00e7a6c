package summary

import (
	"math/rand"
	"testing"

	"repro/internal/btp"
	"repro/internal/relschema"
)

func testSchema() *relschema.Schema {
	s := relschema.NewSchema()
	s.MustAddRelation("R", []string{"k", "a", "b"}, []string{"k"})
	s.MustAddRelation("T", []string{"k", "c"}, []string{"k"})
	s.MustAddForeignKey("f", "R", []string{"a"}, "T", []string{"k"})
	return s
}

// TestTableInvariants checks structural properties of Table 1 that follow
// from the dependency definitions.
func TestTableInvariants(t *testing.T) {
	// Lemma 4.1: only (predicate) rw-antidependencies can be counterflow,
	// so rows whose instantiations have no exposed read before their write
	// (ins, key upd, key del) are all-No in cDepTable.
	for _, row := range []btp.StmtType{btp.Ins, btp.KeyUpd, btp.KeyDel} {
		for col := btp.StmtType(0); col < btp.NumStmtTypes; col++ {
			if CDepTable[row][col] != No {
				t.Errorf("cDepTable[%s][%s] = %s, want false", row, col, CDepTable[row][col])
			}
		}
	}
	// Counterflow targets must be writes: columns ins..del only; the two
	// selection columns are all-No.
	for row := btp.StmtType(0); row < btp.NumStmtTypes; row++ {
		for _, col := range []btp.StmtType{btp.KeySel, btp.PredSel} {
			if CDepTable[row][col] != No {
				t.Errorf("cDepTable[%s][%s] = %s, want false", row, col, CDepTable[row][col])
			}
		}
	}
	// A counterflow edge between two types implies a non-counterflow edge
	// is at least conditionally possible (an rw-antidependency can also be
	// non-counterflow).
	for row := btp.StmtType(0); row < btp.NumStmtTypes; row++ {
		for col := btp.StmtType(0); col < btp.NumStmtTypes; col++ {
			if CDepTable[row][col] != No && NcDepTable[row][col] == No {
				t.Errorf("cDepTable[%s][%s] possible but ncDepTable impossible", row, col)
			}
		}
	}
	// Two selections never conflict.
	for _, a := range []btp.StmtType{btp.KeySel, btp.PredSel} {
		for _, b := range []btp.StmtType{btp.KeySel, btp.PredSel} {
			if NcDepTable[a][b] != No {
				t.Errorf("ncDepTable[%s][%s] = %s, want false", a, b, NcDepTable[a][b])
			}
		}
	}
}

// TestEffectiveSetWidening checks tuple-granularity widening: defined sets
// widen to the full attribute set; ⊥ stays ⊥.
func TestEffectiveSetWidening(t *testing.T) {
	s := testSchema()
	def := btp.Attrs("a")
	if got := effectiveSet(TupleGranularity, s, "R", def); !got.Set.Equal(s.Attrs("R")) {
		t.Errorf("widened set = %v", got)
	}
	if got := effectiveSet(AttrGranularity, s, "R", def); !got.Set.Equal(def.Set) {
		t.Errorf("attr granularity changed the set: %v", got)
	}
	if got := effectiveSet(TupleGranularity, s, "R", btp.Undefined()); got.Defined {
		t.Errorf("⊥ widened to %v", got)
	}
	empty := btp.Attrs()
	if got := effectiveSet(TupleGranularity, s, "R", empty); !got.Set.Equal(s.Attrs("R")) {
		t.Errorf("defined-empty set should widen, got %v", got)
	}
}

// TestFKSuppression exercises cDepConds' foreign-key loop directly: the
// counterflow edge q_sel -> q_upd disappears exactly when both programs
// update the referenced parent first.
func TestFKSuppression(t *testing.T) {
	s := testSchema()
	mkProg := func(name string, parentFirst bool) *btp.Program {
		parent := btp.NewKeyUpd("p", "T", []string{"c"}, []string{"c"})
		sel := btp.NewKeySel("r", "R", "b")
		upd := btp.NewKeyUpd("w", "R", nil, []string{"b"})
		var prog *btp.Program
		if parentFirst {
			prog = btp.LinearProgram(name, parent, sel, upd)
		} else {
			prog = btp.LinearProgram(name, sel, upd, parent)
		}
		prog.MustAnnotateFK(s, "f", "r", "p")
		prog.MustAnnotateFK(s, "f", "w", "p")
		return prog
	}

	for _, tc := range []struct {
		name        string
		parentFirst bool
		useFK       bool
		wantCF      bool
	}{
		{"suppressed", true, true, false},
		{"fk-disabled", true, false, true},
		{"parent-too-late", false, true, true},
	} {
		prog := mkProg("P", tc.parentFirst)
		ltps := btp.Unfold2(prog)
		setting := Setting{AttrGranularity, tc.useFK}
		g := Build(s, ltps, setting)
		foundCF := false
		for _, e := range g.Edges {
			if e.Class == Counterflow && e.FromStmt.Stmt.Name == "r" && e.ToStmt.Stmt.Name == "w" {
				foundCF = true
			}
		}
		if foundCF != tc.wantCF {
			t.Errorf("%s: counterflow r->w = %t, want %t", tc.name, foundCF, tc.wantCF)
		}
	}
}

// TestPredReadNotSuppressed: foreign keys never suppress counterflow edges
// arising from predicate reads (the first branch of cDepConds fires before
// the FK loop).
func TestPredReadNotSuppressed(t *testing.T) {
	s := testSchema()
	parent := btp.NewKeyUpd("p", "T", []string{"c"}, []string{"c"})
	psel := btp.NewPredSel("r", "R", []string{"b"}, []string{"b"})
	upd := btp.NewKeyUpd("w", "R", nil, []string{"b"})
	prog := btp.LinearProgram("P", parent, psel, upd)
	prog.MustAnnotateFK(s, "f", "w", "p")
	ltps := btp.Unfold2(prog)
	g := Build(s, ltps, SettingAttrDepFK)
	found := false
	for _, e := range g.Edges {
		if e.Class == Counterflow && e.FromStmt.Stmt.Name == "r" {
			found = true
		}
	}
	if !found {
		t.Error("predicate-read counterflow edge must survive FK suppression")
	}
}

// TestReachability exercises the closure on a small chain with a cycle.
func TestReachability(t *testing.T) {
	s := testSchema()
	// A -> B -> C via shared writes on R; D isolated (writes only T).
	mk := func(name string, stmts ...*btp.Stmt) *btp.LTP {
		return btp.NewLTP(name, nil, stmts...)
	}
	wa := btp.NewKeyUpd("w", "R", []string{"a"}, []string{"a"})
	a := mk("A", wa)
	b := mk("B", btp.NewKeyUpd("w", "R", []string{"a"}, []string{"a"}))
	d := mk("D", btp.NewKeyUpd("w", "T", []string{"c"}, []string{"c"}))
	g := Build(s, []*btp.LTP{a, b, d}, SettingAttrDepFK)
	if !g.Reachable(a, b) || !g.Reachable(b, a) {
		t.Error("A and B must reach each other via ww edges")
	}
	if !g.Reachable(a, a) {
		t.Error("reachability must be reflexive")
	}
	if g.Reachable(a, d) || g.Reachable(d, a) {
		t.Error("D is disconnected from A")
	}
	if g.NodeIndex(a) != 0 || g.NodeIndex(mk("X")) != -1 {
		t.Error("NodeIndex")
	}
	if len(g.OutEdges(a)) == 0 || len(g.InEdges(b)) == 0 {
		t.Error("adjacency lists empty")
	}
}

// randomLTPs builds a random set of linear programs over the test schema.
func randomLTPs(rng *rand.Rand, s *relschema.Schema) []*btp.LTP {
	attrs := [][]string{{"a"}, {"b"}, {"a", "b"}, {}}
	pick := func() []string { return attrs[rng.Intn(len(attrs))] }
	var ltps []*btp.LTP
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		var stmts []*btp.Stmt
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			name := string(rune('a'+i)) + string(rune('0'+j))
			switch rng.Intn(5) {
			case 0:
				stmts = append(stmts, btp.NewKeySel(name, "R", pick()...))
			case 1:
				w := pick()
				if len(w) == 0 {
					w = []string{"a"}
				}
				stmts = append(stmts, btp.NewKeyUpd(name, "R", pick(), w))
			case 2:
				stmts = append(stmts, btp.NewPredSel(name, "R", pick(), pick()))
			case 3:
				stmts = append(stmts, btp.NewInsAttrs(name, "R", "k", "a", "b"))
			case 4:
				stmts = append(stmts, btp.NewKeyDel(s, name, "R"))
			}
		}
		ltps = append(ltps, btp.NewLTP(string(rune('A'+i)), nil, stmts...))
	}
	return ltps
}

// TestLiteralAlgorithmEquivalence cross-checks the pair-centric cycle
// search behind Robust against the literal oracles (literalRobust: the
// transcription of Algorithm 2 for type II, the definition for type I) on
// many random program sets, in all four settings.
func TestLiteralAlgorithmEquivalence(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		ltps := randomLTPs(rng, s)
		for _, setting := range AllSettings {
			g := Build(s, ltps, setting)
			for _, m := range []Method{TypeII, TypeI} {
				got, _ := g.Robust(m)
				if want := literalRobust(g, m); got != want {
					t.Fatalf("iteration %d, %s, %s: Robust=%t literal=%t on graph:\n%s", i, setting, m, got, want, g)
				}
			}
		}
	}
}

// TestTypeIImpliesTypeIIAbsence: absence of type-I cycles implies absence
// of type-II cycles (every type-II cycle is type-I), on random graphs.
func TestTypeIImpliesTypeIIAbsence(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		ltps := randomLTPs(rng, s)
		g := Build(s, ltps, SettingAttrDepFK)
		robustI, _ := g.Robust(TypeI)
		robustII, _ := g.Robust(TypeII)
		if robustI && !robustII {
			t.Fatalf("iteration %d: type-II cycle without type-I cycle:\n%s", i, g)
		}
	}
}

// TestTupleGranularityIsCoarser: every edge found at attribute granularity
// also exists at tuple granularity (same statements, same class), so the
// attribute analysis can only certify more sets robust.
func TestTupleGranularityIsCoarser(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		ltps := randomLTPs(rng, s)
		attr := Build(s, ltps, SettingAttrDepFK)
		tpl := Build(s, ltps, SettingTplDepFK)
		type key struct {
			from, to string
			fs, ts   string
			c        EdgeClass
		}
		have := map[key]bool{}
		for _, e := range tpl.Edges {
			have[key{e.From.Name, e.To.Name, e.FromStmt.Stmt.Name, e.ToStmt.Stmt.Name, e.Class}] = true
		}
		for _, e := range attr.Edges {
			k := key{e.From.Name, e.To.Name, e.FromStmt.Stmt.Name, e.ToStmt.Stmt.Name, e.Class}
			if !have[k] {
				t.Fatalf("iteration %d: attribute-level edge %v missing at tuple level", i, e)
			}
		}
	}
}

// TestWitnessIsWellFormed: witnesses returned by the detectors form closed
// walks whose consecutive edges share endpoints.
func TestWitnessIsWellFormed(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for i := 0; i < 300 && checked < 50; i++ {
		ltps := randomLTPs(rng, s)
		g := Build(s, ltps, SettingAttrDepFK)
		for _, m := range []Method{TypeI, TypeII} {
			robust, w := g.Robust(m)
			if robust {
				continue
			}
			checked++
			if w == nil || len(w.Cycle) == 0 {
				t.Fatalf("non-robust verdict without witness (method %s)", m)
			}
			for j, e := range w.Cycle {
				next := w.Cycle[(j+1)%len(w.Cycle)]
				if e.To != next.From {
					t.Fatalf("witness not a closed walk at position %d:\n%s", j, w)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-robust random instances generated; weaken the generator")
	}
}

func TestSettingStrings(t *testing.T) {
	want := map[string]Setting{
		"tpl dep":       SettingTplDep,
		"attr dep":      SettingAttrDep,
		"tpl dep + FK":  SettingTplDepFK,
		"attr dep + FK": SettingAttrDepFK,
	}
	for s, setting := range want {
		if setting.String() != s {
			t.Errorf("%v.String() = %q, want %q", setting, setting.String(), s)
		}
	}
	if TypeI.String() != "type-I" || TypeII.String() != "type-II" {
		t.Error("method strings")
	}
	if NonCounterflow.String() != "non-counterflow" || Counterflow.String() != "counterflow" {
		t.Error("edge class strings")
	}
	if No.String() != "false" || Yes.String() != "true" || Cond.String() != "⊥" {
		t.Error("tri strings")
	}
}

func TestEmptyGraph(t *testing.T) {
	s := testSchema()
	g := Build(s, nil, SettingAttrDepFK)
	if robust, _ := g.Robust(TypeII); !robust {
		t.Error("empty graph must be robust")
	}
	if robust, _ := g.Robust(TypeI); !robust {
		t.Error("empty graph must be robust under type-I")
	}
	if g.String() == "" {
		t.Error("String should render header")
	}
}
