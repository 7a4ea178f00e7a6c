package realize

import (
	"fmt"

	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/instantiate"
	"repro/internal/relschema"
	"repro/internal/summary"
)

// guidedAssignments builds one instance per witness-cycle edge and shares
// tuples exactly where the cycle requires conflicts: for edge i, the source
// statement of instance i and the target statement of instance i+1 (mod n)
// access a common tuple when both are key-based. All other key-based
// statements receive private per-instance tuples, so unrelated statements
// do not serialize the instances through unintended row conflicts (e.g.
// PlaceBid's buyer update, which otherwise orders all instances).
//
// Predicate-based statements conflict at relation granularity: selections
// read the whole population and updates/deletes touch a private tuple, so
// no tuple equality is needed for edges with a predicate endpoint.
//
// Foreign-key annotations (ignoreFKs == false) are honoured by a congruence
// closure over the tuple classes: an annotation q_dst = f(q_src) demands
// that every source tuple's image under f equals the tuple of every
// destination occurrence, so (a) all destination occurrences of one
// annotation within an instance are forced onto one class and (b) two
// source slots sharing a class force their destination classes together.
// The closure runs to fixpoint before tuples are named; the resulting
// global valuation is returned through every instance's Assignment.FK.
// Closures that collapse classes until a transaction reads or writes a
// tuple twice violate the strict instantiation form and fail with an
// error, exactly like the canonical population does.
func guidedAssignments(s *relschema.Schema, w *summary.Witness, ignoreFKs bool) ([]enumerate.Instance, error) {
	n := len(w.Cycle)
	type slot struct {
		inst int
		occ  *btp.StmtOcc
	}
	// Union-find over slots.
	parent := map[slot]slot{}
	var find func(x slot) slot
	find = func(x slot) slot {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b slot) { parent[find(a)] = find(b) }

	for i, e := range w.Cycle {
		if e.FromStmt == nil || e.ToStmt == nil {
			return nil, fmt.Errorf("realize: witness edge %d names no statement to guide by", i)
		}
		from := slot{i, e.FromStmt}
		to := slot{(i + 1) % n, e.ToStmt}
		if e.FromStmt.Stmt.Type.IsKeyBased() && e.ToStmt.Stmt.Type.IsKeyBased() {
			union(from, to)
		}
	}

	// Per-instance FK constraints (empty when the annotations are ignored).
	useFKs := false
	instFKs := make([][]btp.FKConstraint, n)
	if !ignoreFKs {
		for i, e := range w.Cycle {
			instFKs[i] = e.From.FKs()
			if len(instFKs[i]) > 0 {
				useFKs = true
			}
		}
	}

	// Congruence closure: classes reachable as destinations of the same
	// (foreign key, source class) pair are merged, as are all destination
	// occurrences of one annotation inside an instance. Each pass that
	// changes anything performs at least one union, so the loop terminates.
	if useFKs {
		for changed := true; changed; {
			changed = false
			type fkSrc struct {
				fk  string
				src slot
			}
			req := map[fkSrc]slot{}
			for i, e := range w.Cycle {
				for _, c := range instFKs[i] {
					var dsts []slot
					hasSrc := false
					for _, occ := range e.From.Stmts {
						if occ.Stmt == c.Dst {
							dsts = append(dsts, slot{i, occ})
						}
						if occ.Stmt == c.Src {
							hasSrc = true
						}
					}
					if !hasSrc || len(dsts) == 0 {
						continue // vacuous annotation in this unfolding
					}
					for _, d := range dsts[1:] {
						if find(d) != find(dsts[0]) {
							union(d, dsts[0])
							changed = true
						}
					}
					rd := find(dsts[0])
					if !c.Src.Type.IsKeyBased() {
						continue // predicate sources bind in the second pass
					}
					for _, occ := range e.From.Stmts {
						if occ.Stmt != c.Src {
							continue
						}
						rs := find(slot{i, occ})
						key := fkSrc{c.FK, rs}
						if prev, ok := req[key]; ok {
							if find(prev) != find(rd) {
								union(prev, rd)
								changed = true
							}
						} else {
							req[key] = rd
						}
					}
				}
			}
		}
	}

	// Pre-pass: register every key-based slot and count class sizes, so
	// singletons can be told apart from genuine sharing classes.
	counts := map[slot]int{}
	for i, e := range w.Cycle {
		for _, occ := range e.From.Stmts {
			if occ.Stmt.Type.IsKeyBased() {
				counts[find(slot{i, occ})]++
			}
		}
	}

	// Name the class tuples and collect the population per relation.
	classTuple := map[slot]string{}
	classSeq := 0
	population := map[string][]string{}
	addTuple := func(rel, name string) {
		for _, t := range population[rel] {
			if t == name {
				return
			}
		}
		population[rel] = append(population[rel], name)
	}
	tupleFor := func(i int, occ *btp.StmtOcc) string {
		root := find(slot{i, occ})
		if name, ok := classTuple[root]; ok {
			return name
		}
		var name string
		if counts[root] <= 1 {
			// Singleton: private per-instance tuple.
			name = fmt.Sprintf("p_%s_%d_%d", occ.Stmt.Rel, i, occ.Pos)
		} else {
			classSeq++
			name = fmt.Sprintf("c_%s_%d", occ.Stmt.Rel, classSeq)
		}
		classTuple[root] = name
		addTuple(occ.Stmt.Rel, name)
		return name
	}

	// First pass: assign every key-based occurrence.
	type pending struct {
		asg instantiate.Assignment
		ltp *btp.LTP
		// delAt maps tuples to the position of this instance's delete of
		// them; the MVCC engine replays a transaction against its own
		// uncommitted state, so any key-based access after the same
		// transaction's delete fails on the engine even though the abstract
		// schedule (reading last-committed versions) allows it.
		delAt map[string]int
	}
	insts := make([]pending, n)
	for i, e := range w.Cycle {
		l := e.From
		if ignoreFKs {
			// A copy without origin loses the FK annotations while keeping
			// the statement occurrences and name.
			l = &btp.LTP{Name: e.From.Name, Stmts: e.From.Stmts}
		}
		asg := instantiate.Assignment{
			Key:  map[*btp.StmtOcc]string{},
			Pred: map[*btp.StmtOcc][]string{},
		}
		usedRead := map[string]bool{}
		usedWrite := map[string]bool{}
		delAt := map[string]int{}
		for _, occ := range l.Stmts {
			q := occ.Stmt
			if !q.Type.IsKeyBased() {
				continue
			}
			tuple := tupleFor(i, occ)
			readsT := q.Type == btp.KeySel || (q.ReadSet.Defined && !q.ReadSet.Set.Empty())
			writesT := q.Type != btp.KeySel
			if (readsT && usedRead[tuple]) || (writesT && usedWrite[tuple]) {
				return nil, fmt.Errorf("realize: guided assignment violates the strict form in %s", l.Name)
			}
			if dp, ok := delAt[tuple]; ok && dp < occ.Pos {
				return nil, fmt.Errorf("realize: guided assignment accesses tuple %s after its own delete in %s", tuple, l.Name)
			}
			if q.Type == btp.KeyDel {
				delAt[tuple] = occ.Pos
			}
			if readsT {
				usedRead[tuple] = true
			}
			if writesT {
				usedWrite[tuple] = true
			}
			asg.Key[occ] = tuple
		}
		insts[i] = pending{asg: asg, ltp: l, delAt: delAt}
	}
	// Two instances inserting (or deleting) the same tuple would be an
	// invalid schedule: the formalism allows at most one insert and one
	// delete per tuple across the whole schedule.
	inserted := map[string]int{}
	deleted := map[string]int{}
	for i := range insts {
		for occ, tuple := range insts[i].asg.Key {
			switch occ.Stmt.Type {
			case btp.Ins:
				inserted[tuple]++
				if inserted[tuple] > 1 {
					return nil, fmt.Errorf("realize: guided assignment inserts tuple %s twice", tuple)
				}
			case btp.KeyDel:
				deleted[tuple]++
				if deleted[tuple] > 1 {
					return nil, fmt.Errorf("realize: guided assignment deletes tuple %s twice", tuple)
				}
			}
		}
	}

	// Global foreign-key valuation over the named tuples. Key-based sources
	// bind now; the congruence closure guarantees no two requirements on the
	// same (foreign key, tuple) disagree, so conflicts here are internal
	// errors rather than search dead ends.
	fkVal := map[string]map[string]string{}
	if useFKs {
		for _, f := range s.ForeignKeys() {
			fkVal[f.Name] = map[string]string{}
		}
		for i, e := range w.Cycle {
			asg := insts[i].asg
			for _, c := range instFKs[i] {
				if !c.Src.Type.IsKeyBased() {
					continue
				}
				dstT, ok := "", false
				for _, occ := range e.From.Stmts {
					if occ.Stmt == c.Dst {
						dstT, ok = asg.Key[occ], true
						break
					}
				}
				if !ok {
					continue
				}
				for _, occ := range e.From.Stmts {
					if occ.Stmt != c.Src {
						continue
					}
					srcT := asg.Key[occ]
					if cur, bound := fkVal[c.FK][srcT]; bound && cur != dstT {
						return nil, fmt.Errorf("realize: guided assignment requires %s(%s) = %s and %s", c.FK, srcT, cur, dstT)
					}
					fkVal[c.FK][srcT] = dstT
				}
			}
		}
	}

	// Second pass: predicate statements range over the final population,
	// restricted to tuples consistent with the valuation when the statement
	// is the source of an annotation.
	var out []enumerate.Instance
	for i := range insts {
		l, asg, delAt := insts[i].ltp, insts[i].asg, insts[i].delAt
		if useFKs {
			asg.FK = fkVal
		}
		// Destination tuple of an annotation whose source is q, in this
		// instance; ok=false when the destination does not occur (vacuous).
		dstTupleOf := func(c btp.FKConstraint) (string, bool) {
			for _, occ := range l.Stmts {
				if occ.Stmt == c.Dst {
					return asg.Key[occ], true
				}
			}
			return "", false
		}
		usedRead := map[string]bool{}
		usedWrite := map[string]bool{}
		for occ, tuple := range asg.Key {
			q := occ.Stmt
			if q.Type == btp.KeySel || (q.ReadSet.Defined && !q.ReadSet.Set.Empty()) {
				usedRead[tuple] = true
			}
			if q.Type != btp.KeySel {
				usedWrite[tuple] = true
			}
		}
		for _, occ := range l.Stmts {
			q := occ.Stmt
			switch q.Type {
			case btp.PredSel:
				var names []string
				for _, tup := range population[q.Rel] {
					if usedRead[tup] {
						continue
					}
					// The match materializes per-tuple reads; skip tuples
					// this instance deleted at an earlier position.
					if dp, del := delAt[tup]; del && dp < occ.Pos {
						continue
					}
					ok := true
					for _, c := range instFKs[i] {
						if c.Src != q {
							continue
						}
						dstT, have := dstTupleOf(c)
						if !have {
							continue
						}
						if cur, bound := fkVal[c.FK][tup]; bound && cur != dstT {
							ok = false
							break
						} else if !bound {
							fkVal[c.FK][tup] = dstT
						}
					}
					if !ok {
						continue
					}
					usedRead[tup] = true
					names = append(names, tup)
				}
				asg.Pred[occ] = names
			case btp.PredUpd, btp.PredDel:
				tuple := fmt.Sprintf("p_%s_%d_%d", q.Rel, i, occ.Pos)
				ok := true
				for _, c := range instFKs[i] {
					if c.Src != q {
						continue
					}
					dstT, have := dstTupleOf(c)
					if !have {
						continue
					}
					if cur, bound := fkVal[c.FK][tuple]; bound && cur != dstT {
						ok = false
						break
					}
					fkVal[c.FK][tuple] = dstT
				}
				if !ok {
					asg.Pred[occ] = nil // empty predicate match
					continue
				}
				addTuple(q.Rel, tuple)
				usedWrite[tuple] = true
				if q.ReadSet.Defined && !q.ReadSet.Set.Empty() {
					usedRead[tuple] = true
				}
				if q.Type == btp.PredDel {
					delAt[tuple] = occ.Pos
				}
				asg.Pred[occ] = []string{tuple}
			}
		}
		out = append(out, enumerate.Instance{LTP: l, Assignment: asg})
	}
	return out, nil
}
