package enumerate

import (
	"slices"

	"repro/internal/schedule"
)

// prefix is the MVRC execution (Definition 3.3) of the DFS's current
// interleaving prefix, on dense indices: operations are numbered in
// transaction order, and so are the tuples they touch. push places a
// transaction's next operation and pop takes back the last one. Between
// them the prefix keeps each tuple's versions and write hold, each
// operation's version, a count of visibility violations (a read of an
// unborn or dead version) and lifecycle violations (a write before the
// tuple's insert or after its delete), and per ordered transaction pair
// the number of conflict dependencies, each decided by seg.dependency's
// rules when the later operation of its pair is placed. A complete
// interleaving is admissible exactly when it counts no violation, and a
// counterexample exactly when the transaction graph has a cycle (Theorem
// 3.2); versions and dependencies agree with schedule.FromOrder and
// seg.Build on the completed order.
type prefix struct {
	ops   []opInfo
	start []int // start[ti] numbers transaction ti's first operation; start[n] = len(ops)
	next  []int // next[ti] counts ti's placed operations
	order []int // placed operation numbers, in placement order
	n     int   // transactions

	// Per tuple.
	init      []int // 0 (unborn) when some operation inserts the tuple, else 1
	latest    []int // last version handed out
	committed []int // last committed version
	dead      []int // version of the last placed delete; 0 for none
	holder    []int // transaction holding an uncommitted write; -1 for none

	violations int
	deps       []int   // deps[a*n+b] counts dependencies from transaction a to b
	color      []uint8 // cycle-search scratch, one per transaction
}

// opInfo is an operation as the prefix sees it: fixed before the search,
// then its state while placed.
type opInfo struct {
	txn   int
	index int // position within its transaction
	kind  schedule.OpKind
	tuple int // tuple number; -1 for predicate reads and commits
	// firstWrite marks a transaction's first write on its tuple: the one
	// that takes the tuple's write hold.
	firstWrite bool
	// chunked marks an operation inside an atomic chunk but not its last:
	// its transaction's next operation must follow it directly.
	chunked bool
	// conflicts lists the operations of other transactions that this one
	// can depend on, or that can depend on it.
	conflicts []int

	version       int // the version a write installed or a read observed
	prevCommitted int // a write's tuple's committed version before its commit
	prevDead      int // a delete's tuple's dead version before it
	violated      int // violations its push counted
}

func newPrefix(txns []*schedule.Transaction) *prefix {
	n := len(txns)
	p := &prefix{
		n:     n,
		start: make([]int, n+1),
		next:  make([]int, n),
		deps:  make([]int, n*n),
		color: make([]uint8, n),
	}
	var all []*schedule.Op
	tuples := map[schedule.TupleID]int{}
	for ti, t := range txns {
		p.start[ti] = len(all)
		for oi, o := range t.Ops {
			info := opInfo{txn: ti, index: oi, kind: o.Kind, tuple: -1}
			if o.Kind != schedule.OpCommit && o.Kind != schedule.OpPredRead {
				id, ok := tuples[o.TupleRef]
				if !ok {
					id = len(tuples)
					tuples[o.TupleRef] = id
					p.init = append(p.init, 1)
				}
				info.tuple = id
				if o.Kind == schedule.OpInsert {
					p.init[id] = 0
				}
				info.firstWrite = o.IsWrite() && !slices.ContainsFunc(t.Ops[:oi], func(q *schedule.Op) bool {
					return q.IsWrite() && q.TupleRef == o.TupleRef
				})
			}
			for _, c := range t.Chunks {
				info.chunked = info.chunked || c.From <= oi && oi < c.To
			}
			p.ops = append(p.ops, info)
			all = append(all, o)
		}
	}
	p.start[n] = len(all)
	for x, a := range all {
		for y, b := range all {
			if a.Txn != b.Txn && conflicting(a, b) {
				p.ops[x].conflicts = append(p.ops[x].conflicts, y)
			}
		}
	}
	p.latest = slices.Clone(p.init)
	p.committed = slices.Clone(p.init)
	p.dead = make([]int, len(tuples))
	p.holder = slices.Repeat([]int{-1}, len(tuples))
	p.order = make([]int, 0, len(all))
	return p
}

// conflicting reports whether a dependency between operations a and b of
// different transactions is possible in some order: the kinds, tuples
// and attributes seg.dependency inspects, without the versions.
func conflicting(a, b *schedule.Op) bool {
	if b.IsWrite() && !a.IsWrite() {
		a, b = b, a
	}
	switch {
	case !a.IsWrite():
		return false // reads and commits never conflict among themselves
	case b.IsPredRead():
		// A predicate read conflicts with every write on its relation; on
		// a plain W the attributes must meet, while I and D change the
		// predicate's match whatever it inspects.
		return a.TupleRef.Rel == b.Rel && (a.Kind != schedule.OpWrite || a.Attrs.Intersects(b.Attrs))
	default:
		return b.Kind != schedule.OpCommit && a.TupleRef == b.TupleRef && a.Attrs.Intersects(b.Attrs)
	}
}

// done reports whether every operation of transaction ti is placed.
func (p *prefix) done(ti int) bool { return p.start[ti]+p.next[ti] == p.start[ti+1] }

// holding returns the transaction whose atomic chunk the last placed
// operation leaves open, or -1.
func (p *prefix) holding() int {
	if k := len(p.order); k > 0 && p.ops[p.order[k-1]].chunked {
		return p.ops[p.order[k-1]].txn
	}
	return -1
}

// push places transaction ti's next operation. It refuses a dirty write —
// a write on a tuple that another transaction holds uncommitted — and then
// changes nothing.
func (p *prefix) push(ti int) bool {
	x := p.start[ti] + p.next[ti]
	o := &p.ops[x]
	bad := 0
	switch t := o.tuple; {
	case o.kind.IsWrite():
		if o.firstWrite {
			if p.holder[t] >= 0 {
				return false
			}
			p.holder[t] = ti
		}
		if p.dead[t] != 0 {
			bad++ // a write after the tuple's delete
		}
		if o.kind == schedule.OpInsert && p.latest[t] != p.init[t] {
			bad++ // an insert after a write
		}
		p.latest[t]++
		o.version = p.latest[t]
		if o.kind == schedule.OpDelete {
			o.prevDead = p.dead[t]
			p.dead[t] = o.version
		}
	case o.kind == schedule.OpRead:
		o.version = p.committed[t]
		if o.version == 0 || o.version == p.dead[t] {
			bad++ // the unborn or the dead version
		}
	case o.kind == schedule.OpCommit:
		for w := p.start[ti]; w < x; w++ {
			if wo := &p.ops[w]; wo.kind.IsWrite() {
				wo.prevCommitted = p.committed[wo.tuple]
				p.committed[wo.tuple] = max(p.committed[wo.tuple], wo.version)
				p.holder[wo.tuple] = -1
			}
		}
	}
	o.violated = bad
	p.violations += bad
	p.next[ti]++
	p.order = append(p.order, x)
	p.link(x, 1)
	return true
}

// pop takes back the last placed operation.
func (p *prefix) pop() {
	x := p.order[len(p.order)-1]
	o := &p.ops[x]
	p.link(x, -1)
	p.order = p.order[:len(p.order)-1]
	p.next[o.txn]--
	p.violations -= o.violated
	switch t := o.tuple; {
	case o.kind.IsWrite():
		if o.kind == schedule.OpDelete {
			p.dead[t] = o.prevDead
		}
		p.latest[t]--
		if o.firstWrite {
			p.holder[t] = -1
		}
	case o.kind == schedule.OpCommit:
		for w := x - 1; w >= p.start[o.txn]; w-- {
			if wo := &p.ops[w]; wo.kind.IsWrite() {
				p.committed[wo.tuple] = wo.prevCommitted
				p.holder[wo.tuple] = o.txn
			}
		}
	}
}

// link adds (sign 1) or removes (sign -1) the dependencies between
// operation x and the placed operations it conflicts with, all placed
// before it. A write depends on every earlier conflicting operation (ww,
// rw, predicate-rw). A read or predicate read of a tuple depends on an
// earlier write whose version it observes or follows (wr, predicate-wr);
// otherwise the write came later in version order and depends on the read
// (rw, predicate-rw). pop calls it before undoing anything else, so both
// signs see the same versions.
func (p *prefix) link(x, sign int) {
	o := &p.ops[x]
	for _, y := range o.conflicts {
		yo := &p.ops[y]
		if yo.index >= p.next[yo.txn] {
			continue // not placed
		}
		from, to := yo.txn, o.txn
		switch o.kind {
		case schedule.OpRead:
			if yo.version > o.version {
				from, to = to, from
			}
		case schedule.OpPredRead:
			if yo.version > p.committed[yo.tuple] {
				from, to = to, from
			}
		}
		p.deps[from*p.n+to] += sign
	}
}

// cyclic reports whether the transaction graph of the placed operations'
// dependencies has a cycle.
func (p *prefix) cyclic() bool {
	clear(p.color)
	for t := range p.n {
		if p.color[t] == 0 && p.reaches(t) {
			return true
		}
	}
	return false
}

// reaches runs the coloring DFS from transaction t and reports whether it
// closes a cycle.
func (p *prefix) reaches(t int) bool {
	p.color[t] = 1
	for u, c := range p.deps[t*p.n : (t+1)*p.n] {
		if c == 0 {
			continue
		}
		if p.color[u] == 1 || p.color[u] == 0 && p.reaches(u) {
			return true
		}
	}
	p.color[t] = 2
	return false
}

// placed returns the placed operations in placement order.
func (p *prefix) placed(txns []*schedule.Transaction) []*schedule.Op {
	out := make([]*schedule.Op, len(p.order))
	for i, x := range p.order {
		out[i] = txns[p.ops[x].txn].Ops[p.ops[x].index]
	}
	return out
}
