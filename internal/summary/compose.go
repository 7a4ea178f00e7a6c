package summary

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/btp"
	"repro/internal/obs"
	"repro/internal/relschema"
	"repro/internal/retire"
)

// BlockSet caches, for one analysis setting, the summary-graph edges of
// every ordered pair of LTPs it has seen. Because Algorithm 1 derives edges
// purely pairwise (appendPairEdges never consults other LTPs), the summary
// graph of any LTP subset is exactly the concatenation of its pairs'
// cached blocks — Compose assembles it without re-running ncDepConds,
// cDepConds or fkSuppressed.
//
// The storage is dense and holds no pointers. Every cached LTP has a slot,
// a dense index that Invalidate releases for reuse. A row-major dim×dim
// span table locates the block of the ordered pair (slot i, slot j) in one
// edge arena, and an arena edge is only its two occurrence positions and
// its class: From and To are the pair's LTPs. Edge values exist only in
// the graphs Compose assembles.
//
// A BlockSet is safe for concurrent use: composes, ensures, invalidations,
// Stats and SizeBytes may run from many goroutines. One RWMutex guards the
// slots, the table and the arena. A caller resolves its LTPs' slots under
// the lock and re-resolves them whenever an Invalidate released a slot
// since (gen), so a recycled slot is never read on behalf of the LTP that
// held it before.
type BlockSet struct {
	b builder

	mu sync.RWMutex
	// slots maps each cached LTP to its dense index. free lists the
	// indices Invalidate released; next is the lowest index never used.
	slots map[*btp.LTP]int32
	free  []int32
	next  int32
	// gen counts the slots Invalidate has released.
	gen uint64
	// spans[i*dim+j] locates the block of the pair (slot i, slot j) in
	// arena. arena[0] belongs to no block, so the zero span marks a pair
	// that is not cached.
	dim   int
	spans []span
	arena []packedEdge
	// pairs counts the cached pairs and live the arena edges their spans
	// cover; the rest of the arena is dead until compactLocked.
	pairs, live int
	// retired holds the LTPs most recently passed to Invalidate or Retire.
	// A check that was already in flight when its program was invalidated
	// may still present them, and those pairs are computed on demand but
	// never cached: no later caller holds the old LTPs, so cached pairs
	// would leak for the set's lifetime.
	retired retire.Set[*btp.LTP]

	// Cache telemetry, exposed through Stats. A hit is a pair a compose or
	// ensure found cached; a miss ran appendPairEdges (two racing
	// goroutines may both record a miss for the same pair — the counters
	// track work done, not distinct pairs). invalidated counts pairs
	// evicted by Invalidate.
	hits, misses, invalidated atomic.Uint64
}

// span locates one cached pair's block: arena[off : off+n].
type span struct{ off, n uint32 }

// packedEdge is one arena edge: the positions in its LTPs' Stmts of its
// source and target occurrences, with the class in the top bit of to.
type packedEdge struct{ from, to uint32 }

const counterflowBit = 1 << 31

// edge materializes the packed edge of the ordered pair (pi, pj).
func (pe packedEdge) edge(pi, pj *btp.LTP) Edge {
	class := NonCounterflow
	if pe.to&counterflowBit != 0 {
		class = Counterflow
	}
	return Edge{From: pi, FromStmt: pi.Stmts[pe.from], Class: class, ToStmt: pj.Stmts[pe.to&^counterflowBit], To: pj}
}

// NewBlockSet creates an empty pairwise edge-block cache for the setting.
func NewBlockSet(schema *relschema.Schema, setting Setting) *BlockSet {
	return &BlockSet{
		b:     builder{setting: setting, schema: schema},
		slots: make(map[*btp.LTP]int32),
		arena: make([]packedEdge, 1),
	}
}

// Setting returns the analysis setting the blocks are computed under.
func (bs *BlockSet) Setting() Setting { return bs.b.setting }

// Len returns the number of cached ordered pairs (for tests and stats).
func (bs *BlockSet) Len() int {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	return bs.pairs
}

// BlockStats is a snapshot of one block cache's telemetry.
type BlockStats struct {
	// Pairs is the number of ordered LTP pairs currently cached.
	Pairs int
	// Hits counts pairs a compose or ensure found cached.
	Hits uint64
	// Misses counts pairs that ran Algorithm 1's pairwise edge derivation.
	Misses uint64
	// Invalidated counts pairs evicted by Invalidate since creation.
	Invalidated uint64
}

// Add accumulates another snapshot into s (for aggregating across
// settings).
func (s *BlockStats) Add(t BlockStats) {
	s.Pairs += t.Pairs
	s.Hits += t.Hits
	s.Misses += t.Misses
	s.Invalidated += t.Invalidated
}

// Stats returns a snapshot of the cache telemetry.
func (bs *BlockSet) Stats() BlockStats {
	return BlockStats{
		Pairs:       bs.Len(),
		Hits:        bs.hits.Load(),
		Misses:      bs.misses.Load(),
		Invalidated: bs.invalidated.Load(),
	}
}

// Rough per-entry costs of the SizeBytes estimate: a slot is a map entry
// of a pointer key and an int32 with its share of the map's groups.
const (
	slotEntryBytes  = 24
	spanBytes       = int64(unsafe.Sizeof(span{}))
	packedEdgeBytes = int64(unsafe.Sizeof(packedEdge{}))
)

// SizeBytes estimates the cache's resident memory: the slot index, the span
// table and the live arena edges. It is the per-setting term of the
// server's per-workload memory accounting — the input to the -max-bytes
// eviction policy — so it is a relative estimate (deliberately biased low:
// it ignores the LTPs the slots name, which the session accounts for
// separately, and arena edges no span covers), not an exact accounting.
func (bs *BlockSet) SizeBytes() int64 {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	return int64(unsafe.Sizeof(*bs)) +
		int64(len(bs.slots))*slotEntryBytes +
		int64(len(bs.spans))*spanBytes +
		int64(bs.live)*packedEdgeBytes +
		bs.retired.SizeBytes()
}

// Retire marks LTPs the set holds no pairs of, so that their pairs are
// never admitted to the cache; it evicts nothing. Used for fresh
// unfoldings handed to in-flight callers of an already-invalidated
// program.
func (bs *BlockSet) Retire(ltps []*btp.LTP) {
	bs.mu.Lock()
	for _, l := range ltps {
		bs.retired.Add(l)
	}
	bs.mu.Unlock()
}

// Invalidate evicts every cached pair with at least one endpoint among the
// given LTPs and reports how many pairs were dropped. Pairs between
// untouched LTPs stay cached — this is the pair-level invalidation behind
// incremental re-analysis: when one program changes, only its ordered pairs
// are recomputed on the next Compose. Each victim's row and column are
// cleared and its slot is released for reuse; the arena is compacted once
// its dead edges outnumber the live ones by more than compactSlack. The
// LTPs are also retired: checks already in flight still resolve their
// pairs (recomputed on demand) but the results are no longer cached.
func (bs *BlockSet) Invalidate(ltps []*btp.LTP) int {
	if len(ltps) == 0 {
		return 0
	}
	bs.mu.Lock()
	for _, l := range ltps {
		bs.retired.Add(l)
	}
	removed := 0
	for _, l := range ltps {
		s, ok := bs.slots[l]
		if !ok {
			continue
		}
		delete(bs.slots, l)
		bs.free = append(bs.free, s)
		bs.gen++
		for t := range bs.next {
			removed += bs.dropLocked(s, t)
			if t != s {
				removed += bs.dropLocked(t, s)
			}
		}
	}
	if len(bs.arena) > 2*bs.live+compactSlack {
		bs.compactLocked()
	}
	bs.mu.Unlock()
	bs.invalidated.Add(uint64(removed))
	return removed
}

// compactSlack is how many dead arena edges Invalidate tolerates beyond
// the live count before it compacts, so small sets never compact.
const compactSlack = 1024

// dropLocked evicts the pair (slot i, slot j) and reports 1 if it was
// cached. Caller holds bs.mu for writing.
func (bs *BlockSet) dropLocked(i, j int32) int {
	sp := &bs.spans[int(i)*bs.dim+int(j)]
	if sp.off == 0 {
		return 0
	}
	bs.live -= int(sp.n)
	bs.pairs--
	*sp = span{}
	return 1
}

// compactLocked rewrites the arena with only the cached blocks, in table
// order. Caller holds bs.mu for writing.
func (bs *BlockSet) compactLocked() {
	arena := make([]packedEdge, 1, 1+bs.live)
	for k, sp := range bs.spans {
		if sp.off == 0 {
			continue
		}
		bs.spans[k].off = uint32(len(arena))
		arena = append(arena, bs.arena[sp.off:sp.off+sp.n]...)
	}
	bs.arena = arena
}

// spanLocked returns the span of the pair (slot i, slot j), or the zero
// span when either LTP has no slot. Caller holds bs.mu.
func (bs *BlockSet) spanLocked(i, j int32) span {
	if i < 0 || j < 0 {
		return span{}
	}
	return bs.spans[int(i)*bs.dim+int(j)]
}

// Ensure precomputes the blocks of every ordered pair over the given LTPs,
// so that subsequent Compose calls over subsets of them are pure cache
// reads.
func (bs *BlockSet) Ensure(ltps []*btp.LTP) {
	bs.EnsureCtx(context.Background(), ltps, 0)
}

// Compose assembles the summary graph SuG(P) of the given LTPs from the
// block set's cached pairwise edges. The result is identical — including
// edge order — to Build(schema, ltps, setting): Build iterates pi-major
// over ordered pairs and each pair's edges are contiguous, so concatenating
// the cached blocks in the same order reproduces the construction exactly.
// Missing pairs are computed (and cached) on the fly.
func Compose(bs *BlockSet, ltps []*btp.LTP) *Graph {
	g, _ := ComposeCtx(context.Background(), bs, ltps, 0) // never errs: ctx cannot cancel
	return g
}

// EnsureCtx is Ensure under a context, which aborts the pair computation
// between rows; rows already stored stay cached and valid. Pairs with a
// retired endpoint are skipped, since they could not be cached. The
// trailing int is ignored (it was a worker count); callers pass 0.
func (bs *BlockSet) EnsureCtx(ctx context.Context, ltps []*btp.LTP, _ int) error {
	p := bs.begin(ctx, ltps)
	err := p.fill(ctx)
	p.endPairs()
	return err
}

// ComposeCtx is Compose under a context, which aborts the pair
// computation between rows. A fully warm compose takes the read lock once
// per row to count its hits and once more to assemble the graph. The
// trailing int is ignored (it was a worker count); callers pass 0.
func ComposeCtx(ctx context.Context, bs *BlockSet, ltps []*btp.LTP, _ int) (*Graph, error) {
	p := bs.begin(ctx, ltps)
	err := p.fill(ctx)
	var g *Graph
	if err == nil {
		g = p.assemble()
	}
	p.endPairs()
	return g, err
}

// pass is one ensure or compose over an LTP list: the slot of every LTP
// (-1 for a retired one) as of generation gen, and the pair derivations it
// ran, for the pairs span.
type pass struct {
	bs       *BlockSet
	ltps     []*btp.LTP
	slots    []int32
	gen      uint64
	tr       obs.Tracer
	computed int
	took     time.Duration
}

// begin resolves the slots of ltps, giving one to every LTP that lacks one
// and is not retired.
func (bs *BlockSet) begin(ctx context.Context, ltps []*btp.LTP) pass {
	p := pass{bs: bs, ltps: ltps, slots: make([]int32, len(ltps)), tr: obs.TracerFrom(ctx)}
	bs.mu.RLock()
	complete := p.resolveLocked()
	bs.mu.RUnlock()
	if !complete {
		bs.mu.Lock()
		bs.admitLocked(&p)
		bs.mu.Unlock()
	}
	return p
}

// resolveLocked reads every LTP's slot (-1 for one without) as of the
// current generation and reports whether all have one. Caller holds bs.mu.
func (p *pass) resolveLocked() bool {
	p.gen = p.bs.gen
	complete := true
	for i, l := range p.ltps {
		s, ok := p.bs.slots[l]
		if !ok {
			s, complete = -1, false
		}
		p.slots[i] = s
	}
	return complete
}

// admitLocked gives a slot to every LTP of the pass that lacks one and is
// not retired, released slots first, and grows the table once to fit.
// Caller holds bs.mu for writing.
func (bs *BlockSet) admitLocked(p *pass) {
	p.resolveLocked()
	for i, l := range p.ltps {
		if p.slots[i] >= 0 {
			continue
		}
		if s, ok := bs.slots[l]; ok { // a duplicate, admitted above
			p.slots[i] = s
			continue
		}
		if bs.retired.Has(l) {
			continue
		}
		var s int32
		if n := len(bs.free); n > 0 {
			s, bs.free = bs.free[n-1], bs.free[:n-1]
		} else {
			s = bs.next
			bs.next++
		}
		bs.slots[l] = s
		p.slots[i] = s
	}
	if int(bs.next) > bs.dim {
		bs.growLocked(max(int(bs.next), bs.dim*3/2))
	}
}

// growLocked widens the span table to dim×dim, keeping every span. Caller
// holds bs.mu for writing.
func (bs *BlockSet) growLocked(dim int) {
	spans := make([]span, dim*dim)
	for i := range bs.dim {
		copy(spans[i*dim:], bs.spans[i*bs.dim:(i+1)*bs.dim])
	}
	bs.spans, bs.dim = spans, dim
}

// fill computes and caches every pair between slotted LTPs of the pass that
// the set lacks, row by row: a row's missing pairs are derived into one
// reusable scratch buffer outside the lock and appended to the arena under
// one write lock. A block whose endpoint lost its slot in between, or that
// a racing fill stored first, is dropped. The context is polled before
// each row that needs computing; on cancellation the context's error is
// returned and the rows already stored stay cached.
func (p *pass) fill(ctx context.Context) error {
	bs := p.bs
	var (
		scratch []packedEdge
		cols    []int32 // columns of the row's missing pairs
		ends    []int   // ends[k]: where column cols[k]'s block ends in scratch
		hits    int
	)
	for i := range p.ltps {
		cols = cols[:0]
		bs.mu.RLock()
		if bs.gen != p.gen {
			p.resolveLocked()
		}
		if si := p.slots[i]; si >= 0 {
			row := bs.spans[int(si)*bs.dim:]
			for j, sj := range p.slots {
				if sj < 0 {
					continue
				}
				if row[sj].off != 0 {
					hits++
				} else {
					cols = append(cols, int32(j))
				}
			}
		}
		bs.mu.RUnlock()
		if len(cols) == 0 {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		var t0 time.Time
		if p.tr != nil {
			t0 = time.Now()
		}
		scratch, ends = scratch[:0], ends[:0]
		for _, j := range cols {
			scratch = bs.b.appendPairEdges(scratch, p.ltps[i], p.ltps[j])
			ends = append(ends, len(scratch))
		}
		p.computed += len(cols)
		bs.misses.Add(uint64(len(cols)))
		bs.mu.Lock()
		if bs.gen != p.gen {
			p.resolveLocked()
		}
		bs.storeRowLocked(p.slots[i], p.slots, cols, scratch, ends)
		bs.mu.Unlock()
		if p.tr != nil {
			p.took += time.Since(t0)
		}
	}
	bs.hits.Add(uint64(hits))
	return ctx.Err()
}

// storeRowLocked appends the freshly derived blocks of row slot si to the
// arena: column cols[k]'s block is scratch[ends[k-1]:ends[k]]. Caller holds
// bs.mu for writing.
func (bs *BlockSet) storeRowLocked(si int32, slots, cols []int32, scratch []packedEdge, ends []int) {
	if si < 0 {
		return
	}
	row := bs.spans[int(si)*bs.dim:]
	start := 0
	for k, j := range cols {
		blk := scratch[start:ends[k]]
		start = ends[k]
		sj := slots[j]
		if sj < 0 || row[sj].off != 0 {
			continue
		}
		row[sj] = span{off: uint32(len(bs.arena)), n: uint32(len(blk))}
		bs.arena = append(bs.arena, blk...)
		bs.live += len(blk)
		bs.pairs++
	}
}

// assemble builds the graph of the pass's LTPs in one read-locked pass over
// the table. A first sweep sums the cached blocks and derives the pairs
// the set does not hold (a retired endpoint, or an Invalidate since fill)
// into a side buffer, in pair order; a second copies every block into
// exactly-sized edge and endpoint arrays, materializing each Edge.
func (p *pass) assemble() *Graph {
	bs, ltps := p.bs, p.ltps
	g := &Graph{
		Setting: bs.b.setting,
		Nodes:   ltps,
		schema:  bs.b.schema,
		nodeIdx: make(map[*btp.LTP]int, len(ltps)),
	}
	for i, l := range ltps {
		g.nodeIdx[l] = i
	}
	var (
		side     []packedEdge
		sideEnds []int
		total    int
		t0       time.Time
	)
	bs.mu.RLock()
	if bs.gen != p.gen {
		p.resolveLocked()
	}
	if p.tr != nil {
		t0 = time.Now()
	}
	for i, si := range p.slots {
		for j, sj := range p.slots {
			if sp := bs.spanLocked(si, sj); sp.off != 0 {
				total += int(sp.n)
				continue
			}
			side = bs.b.appendPairEdges(side, ltps[i], ltps[j])
			sideEnds = append(sideEnds, len(side))
		}
	}
	if len(sideEnds) > 0 {
		p.computed += len(sideEnds)
		bs.misses.Add(uint64(len(sideEnds)))
		if p.tr != nil {
			p.took += time.Since(t0)
		}
	}
	total += len(side)
	g.Edges = make([]Edge, total)
	g.edgeFrom = make([]int32, total)
	g.edgeTo = make([]int32, total)
	k, next, start := 0, 0, 0
	for i, si := range p.slots {
		pi := ltps[i]
		for j, sj := range p.slots {
			var blk []packedEdge
			if sp := bs.spanLocked(si, sj); sp.off != 0 {
				blk = bs.arena[sp.off : sp.off+sp.n]
			} else {
				blk, start = side[start:sideEnds[next]], sideEnds[next]
				next++
			}
			for _, pe := range blk {
				g.Edges[k] = pe.edge(pi, ltps[j])
				g.edgeFrom[k], g.edgeTo[k] = int32(i), int32(j)
				k++
			}
		}
	}
	bs.mu.RUnlock()
	g.index()
	return g
}

// endPairs emits the pass's one pairs span — the sub-span of compose that
// a warm block cache skips entirely (no pair computed, no span).
func (p *pass) endPairs() {
	if p.tr != nil && p.computed > 0 {
		p.tr.Span(obs.PhasePairs, p.took)
	}
}
