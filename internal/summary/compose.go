package summary

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/btp"
	"repro/internal/obs"
	"repro/internal/relschema"
)

// BlockSet caches, for one analysis setting, the summary-graph edges of
// every ordered pair of LTPs it has seen. Because Algorithm 1 derives edges
// purely pairwise (appendPairEdges never consults other LTPs), the summary
// graph of any LTP subset is exactly the concatenation of its pairs'
// cached blocks — Compose assembles it without re-running ncDepConds,
// cDepConds or fkSuppressed.
//
// A BlockSet is safe for concurrent use: Ensure and PairEdges may populate
// the cache from multiple goroutines (concurrent checks of one session),
// and Compose only reads it.
type BlockSet struct {
	b builder

	mu     sync.RWMutex
	blocks map[ltpPair][]Edge
	// retired marks LTPs passed to Invalidate: a check that was already
	// in flight when its program was invalidated may still look their
	// pairs up, and those recomputations must not be re-cached — the old
	// LTP pointers are unreachable to future callers, so re-inserting
	// them would leak the entries for the cache's lifetime.
	retired map[*btp.LTP]bool

	// Cache telemetry, exposed through Stats. A hit is a PairEdges call
	// answered from the cache; a miss ran appendPairEdges (two racing
	// goroutines may both record a miss for the same pair — the counters
	// track work done, not distinct pairs). invalidated counts pairs
	// evicted by Invalidate.
	hits, misses, invalidated atomic.Uint64
}

type ltpPair struct{ from, to *btp.LTP }

// NewBlockSet creates an empty pairwise edge-block cache for the setting.
func NewBlockSet(schema *relschema.Schema, setting Setting) *BlockSet {
	return &BlockSet{
		b:      builder{setting: setting, schema: schema},
		blocks: make(map[ltpPair][]Edge),
	}
}

// Setting returns the analysis setting the blocks are computed under.
func (bs *BlockSet) Setting() Setting { return bs.b.setting }

// Len returns the number of cached ordered pairs (for tests and stats).
func (bs *BlockSet) Len() int {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	return len(bs.blocks)
}

// BlockStats is a snapshot of one block cache's telemetry.
type BlockStats struct {
	// Pairs is the number of ordered LTP pairs currently cached.
	Pairs int
	// Hits counts PairEdges calls answered from the cache.
	Hits uint64
	// Misses counts PairEdges calls that ran Algorithm 1's pairwise edge
	// derivation.
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

// Rough per-entry overheads of the SizeBytes estimate: a cached pair costs
// its two-pointer key, a slice header and a share of the map's buckets; a
// retired LTP costs a map entry.
const (
	edgeBytes         = int64(unsafe.Sizeof(Edge{}))
	pairEntryBytes    = 64
	retiredEntryBytes = 16
)

// SizeBytes estimates the cache's resident memory: every cached edge slice
// plus map and bookkeeping overhead. It is the per-setting term of the
// server's per-workload memory accounting — the input to the -max-bytes
// eviction policy — so it is a relative estimate (deliberately biased low:
// it ignores the LTPs the edges point into, which the session accounts for
// separately), not an exact accounting.
func (bs *BlockSet) SizeBytes() int64 {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	n := int64(unsafe.Sizeof(*bs))
	for _, edges := range bs.blocks {
		n += pairEntryBytes + int64(cap(edges))*edgeBytes
	}
	n += int64(len(bs.retired)) * retiredEntryBytes
	return n
}

// Retire marks the LTPs so their pairs are never (re-)admitted to the
// cache, without evicting anything. Used for fresh unfoldings handed to
// in-flight callers of an already-invalidated program.
func (bs *BlockSet) Retire(ltps []*btp.LTP) {
	bs.mu.Lock()
	if bs.retired == nil {
		bs.retired = make(map[*btp.LTP]bool, len(ltps))
	}
	for _, l := range ltps {
		bs.retired[l] = true
	}
	bs.mu.Unlock()
}

// Invalidate evicts every cached pair with at least one endpoint among the
// given LTPs and reports how many pairs were dropped. Pairs between
// untouched LTPs stay cached — this is the pair-level invalidation behind
// incremental re-analysis: when one program changes, only its ordered pairs
// are recomputed on the next Compose. The LTPs are also retired: checks
// already in flight still resolve their pairs (recomputed on demand) but
// the results are no longer admitted to the cache.
func (bs *BlockSet) Invalidate(ltps []*btp.LTP) int {
	if len(ltps) == 0 {
		return 0
	}
	bs.mu.Lock()
	if bs.retired == nil {
		bs.retired = make(map[*btp.LTP]bool, len(ltps))
	}
	for _, l := range ltps {
		bs.retired[l] = true
	}
	removed := 0
	for k := range bs.blocks {
		if bs.retired[k.from] || bs.retired[k.to] {
			delete(bs.blocks, k)
			removed++
		}
	}
	bs.mu.Unlock()
	bs.invalidated.Add(uint64(removed))
	return removed
}

// PairEdges returns the edge block of the ordered pair (pi, pj), computing
// and caching it on first use. The returned slice is shared — callers must
// not mutate it.
func (bs *BlockSet) PairEdges(pi, pj *btp.LTP) []Edge {
	k := ltpPair{pi, pj}
	bs.mu.RLock()
	edges, ok := bs.blocks[k]
	bs.mu.RUnlock()
	if ok {
		bs.hits.Add(1)
		return edges
	}
	bs.misses.Add(1)
	edges = bs.b.appendPairEdges(nil, pi, pj)
	bs.mu.Lock()
	// Another goroutine may have raced us here; last write wins — the
	// computation is deterministic, so both results are identical.
	// Retired endpoints are served but never re-cached.
	if !bs.retired[pi] && !bs.retired[pj] {
		bs.blocks[k] = edges
	}
	bs.mu.Unlock()
	return edges
}

// CachedPairStats reports the cached edge block of the ordered pair — its
// edge count and how many of those edges are counterflow — without
// computing a missing block (ok is false then). The cost-ordered lattice
// scheduler reads these to estimate a subset's conflict density; a pure
// read keeps the estimate free of the very composition work the schedule
// is trying to order.
func (bs *BlockSet) CachedPairStats(pi, pj *btp.LTP) (edges, counterflow int, ok bool) {
	bs.mu.RLock()
	blk, ok := bs.blocks[ltpPair{pi, pj}]
	bs.mu.RUnlock()
	if !ok {
		return 0, 0, false
	}
	for _, e := range blk {
		if e.Class == Counterflow {
			counterflow++
		}
	}
	return len(blk), counterflow, true
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

// fillChunk is the number of missing pairs fillMissing computes between two
// polls of the context.
const fillChunk = 32

// scanPairs reads every ordered pair's cached block in one pass — RLocked
// per row to bound writer stalls — returning the (pi-major) block table
// with nil-able gaps and the indices of the pairs that still need
// computing. Cached pairs are counted as hits in one batch; the cost of a
// fully warm scan is m map reads per lock instead of a lock per pair.
func (bs *BlockSet) scanPairs(ltps []*btp.LTP) (blocks [][]Edge, missing []int32) {
	m := len(ltps)
	blocks = make([][]Edge, m*m)
	for i, pi := range ltps {
		bs.mu.RLock()
		for j, pj := range ltps {
			k := i*m + j
			if blk, ok := bs.blocks[ltpPair{pi, pj}]; ok {
				blocks[k] = blk
			} else {
				missing = append(missing, int32(k))
			}
		}
		bs.mu.RUnlock()
	}
	if hits := m*m - len(missing); hits > 0 {
		bs.hits.Add(uint64(hits))
	}
	return blocks, missing
}

// fillMissing computes the missing pairs of a scanPairs result into their
// slots. Each computation goes through PairEdges, which records the miss
// and caches the block (unless retired). The context is polled every
// fillChunk pairs; on cancellation the context's error is returned and
// pairs already computed stay cached and valid. A non-nil tracer on the
// context gets one pairs span covering Algorithm 1's pair derivation — the
// sub-span of compose that a warm block cache skips entirely (no missing
// pairs, no span).
func (bs *BlockSet) fillMissing(ctx context.Context, ltps []*btp.LTP, blocks [][]Edge, missing []int32) error {
	if len(missing) == 0 {
		return ctx.Err()
	}
	var start time.Time
	tr := obs.TracerFrom(ctx)
	if tr != nil {
		start = time.Now()
	}
	m := int32(len(ltps))
	for c, k := range missing {
		if c%fillChunk == 0 && ctx.Err() != nil {
			break
		}
		blocks[k] = bs.PairEdges(ltps[k/m], ltps[k%m])
	}
	if tr != nil {
		tr.Span(obs.PhasePairs, time.Since(start))
	}
	return ctx.Err()
}

// EnsureCtx is Ensure under a context, which aborts the pair computation
// between chunks. A warm Ensure is a single read-locked scan. The trailing
// int is ignored (it was a worker count); callers pass 0.
func (bs *BlockSet) EnsureCtx(ctx context.Context, ltps []*btp.LTP, _ int) error {
	blocks, missing := bs.scanPairs(ltps)
	return bs.fillMissing(ctx, ltps, blocks, missing)
}

// ComposeCtx is Compose under a context, which aborts between stages and
// inside the pair computation. A fully warm compose is one read-locked scan
// plus the assembly, one cache hit counted per pair. The trailing int is
// ignored (it was a worker count); callers pass 0.
func ComposeCtx(ctx context.Context, bs *BlockSet, ltps []*btp.LTP, _ int) (*Graph, error) {
	blocks, missing := bs.scanPairs(ltps)
	if err := bs.fillMissing(ctx, ltps, blocks, missing); err != nil {
		return nil, err
	}
	g := &Graph{
		Setting: bs.b.setting,
		Nodes:   ltps,
		schema:  bs.b.schema,
		nodeIdx: make(map[*btp.LTP]int, len(ltps)),
	}
	for i, l := range ltps {
		g.nodeIdx[l] = i
	}
	// Copy the gathered blocks into one exactly-sized edge slice, recording
	// endpoint indices as we go — every edge of block (fi, ti) runs from
	// node fi to node ti.
	m := len(ltps)
	total := 0
	for _, blk := range blocks {
		total += len(blk)
	}
	g.Edges = make([]Edge, 0, total)
	g.edgeFrom = make([]int32, 0, total)
	g.edgeTo = make([]int32, 0, total)
	for bi, blk := range blocks {
		fi, ti := int32(bi/m), int32(bi%m)
		for range blk {
			g.edgeFrom = append(g.edgeFrom, fi)
			g.edgeTo = append(g.edgeTo, ti)
		}
		g.Edges = append(g.Edges, blk...)
	}
	g.index()
	return g, nil
}

// SubsetDetector answers robustness queries for node-induced subgraphs of
// one LTP universe. It composes the universe graph once (priming the block
// cache) and then detects dangerous cycles per subset directly on the
// universe's edge arrays, filtered by a membership bitmask — no per-subset
// graph is materialized, and with a reused DetectScratch the per-query
// allocation count is zero. Verdicts are identical to running
// Graph.Robust on the composed subset graph (the subset's summary graph is
// exactly the universe graph induced on its nodes); the subset enumeration
// uses this because it only needs verdicts, never witnesses.
type SubsetDetector struct {
	edges    []Edge
	from, to []int32
	// in[i] lists universe edge indices entering node i; out[i] the edges
	// leaving it (used by the witness-path reconstruction of RobustWitness).
	in, out [][]int32
	// cf lists the counterflow edge indices.
	cf    []int32
	n     int
	words int
}

// NewSubsetDetector builds a detector over the LTP universe, computing (or
// reusing) the pairwise blocks of every ordered pair.
func NewSubsetDetector(bs *BlockSet, ltps []*btp.LTP) *SubsetDetector {
	return newSubsetDetector(Compose(bs, ltps), len(ltps))
}

// NewSubsetDetectorCtx is NewSubsetDetector under a context, which aborts
// the universe compose.
func NewSubsetDetectorCtx(ctx context.Context, bs *BlockSet, ltps []*btp.LTP) (*SubsetDetector, error) {
	g, err := ComposeCtx(ctx, bs, ltps, 0)
	if err != nil {
		return nil, err
	}
	return newSubsetDetector(g, len(ltps)), nil
}

// newSubsetDetector indexes a freshly composed universe graph for
// per-subset detection.
func newSubsetDetector(g *Graph, n int) *SubsetDetector {
	d := &SubsetDetector{
		edges: g.Edges, from: g.edgeFrom, to: g.edgeTo,
		n: n, words: (n + 63) / 64,
	}
	inDeg := make([]int, n)
	outDeg := make([]int, n)
	for ei := range g.Edges {
		inDeg[g.edgeTo[ei]]++
		outDeg[g.edgeFrom[ei]]++
	}
	inBacking := make([]int32, len(g.Edges))
	outBacking := make([]int32, len(g.Edges))
	d.in = make([][]int32, n)
	d.out = make([][]int32, n)
	io, oo := 0, 0
	for i := 0; i < n; i++ {
		d.in[i] = inBacking[io : io : io+inDeg[i]]
		io += inDeg[i]
		d.out[i] = outBacking[oo : oo : oo+outDeg[i]]
		oo += outDeg[i]
	}
	for ei := range g.Edges {
		d.in[g.edgeTo[ei]] = append(d.in[g.edgeTo[ei]], int32(ei))
		d.out[g.edgeFrom[ei]] = append(d.out[g.edgeFrom[ei]], int32(ei))
		if g.Edges[ei].Class == Counterflow {
			d.cf = append(d.cf, int32(ei))
		}
	}
	return d
}

// SizeBytes estimates the detector's resident memory beyond the graph it
// was built from: adjacency backing arrays and the counterflow index. Used
// by the session's memory accounting when detectors are memoized across
// enumerations.
func (d *SubsetDetector) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*d)) + int64(len(d.edges))*(2*4+2*4) + int64(cap(d.cf))*4
}

// NumNodes returns the universe size; membership masks passed to Robust
// must cover (NumNodes+63)/64 words.
func (d *SubsetDetector) NumNodes() int { return d.n }

// DetectScratch holds the reusable buffers of one detection worker. Not
// safe for concurrent use — allocate one per goroutine.
type DetectScratch struct {
	backing        []uint64
	reach, coreach []bitset
	cache          []int32
}

// NewScratch allocates a scratch sized for the detector's universe.
func (d *SubsetDetector) NewScratch() *DetectScratch {
	s := &DetectScratch{
		backing: make([]uint64, 2*d.n*d.words),
		reach:   make([]bitset, d.n),
		coreach: make([]bitset, d.n),
		cache:   make([]int32, d.n*d.n),
	}
	for i := 0; i < d.n; i++ {
		s.reach[i] = bitset(s.backing[i*d.words : (i+1)*d.words])
		s.coreach[i] = bitset(s.backing[(d.n+i)*d.words : (d.n+i+1)*d.words])
	}
	return s
}

// Robust reports whether the subgraph induced by the member nodes (a
// bitmask over universe node indices) is free of dangerous cycles under the
// method — the verdict Graph.Robust would return on the composed subset
// graph.
func (d *SubsetDetector) Robust(method Method, members []uint64, s *DetectScratch) bool {
	ok, _, _, _ := d.detect(method, members, s)
	return ok
}

// RobustWitness is Robust plus, when the subgraph is non-robust, the node
// mask of the found witness cycle: the distinguished edges' endpoints and
// every node on the connecting paths. The mask is what makes recorded
// non-robust cores *minimal-ish* out of the gate — the lattice enumeration
// then minimizes it to exact program-level minimality — rather than
// recording the whole (possibly much larger) subset. A robust subgraph
// returns (true, nil).
func (d *SubsetDetector) RobustWitness(method Method, members []uint64, s *DetectScratch) (bool, []uint64) {
	ok, e1, e2, e3 := d.detect(method, members, s)
	if ok {
		return true, nil
	}
	mask := make([]uint64, d.words)
	wm := bitset(mask)
	if method == TypeI {
		// Witness: the counterflow edge e3 plus a path closing it back.
		fi, ti := int(d.from[e3]), int(d.to[e3])
		wm.set(fi)
		wm.set(ti)
		d.markPath(ti, fi, members, wm)
		return false, mask
	}
	// Witness: e1, path(e1.To -> e2.From), e2, e3, path(e3.To -> e1.From) —
	// the same shape Graph.assembleWitness stitches.
	p1, p2 := int(d.from[e1]), int(d.to[e1])
	s2, m := int(d.from[e2]), int(d.to[e2])
	t := int(d.to[e3])
	for _, node := range [...]int{p1, p2, s2, m, t} {
		wm.set(node)
	}
	d.markPath(p2, s2, members, wm)
	d.markPath(t, p1, members, wm)
	return false, mask
}

// markPath sets the nodes of one shortest member-edge path from u to v
// (exclusive of endpoints, which callers set) into wm. It panics when no
// path exists: callers only ask for paths whose existence the closure bits
// established.
func (d *SubsetDetector) markPath(u, v int, members []uint64, wm bitset) {
	if u == v {
		return
	}
	mem := bitset(members)
	prev := make([]int32, d.n)
	for i := range prev {
		prev[i] = -1
	}
	queue := make([]int32, 0, d.n)
	queue = append(queue, int32(u))
	prev[u] = int32(u)
	for len(queue) > 0 {
		cur := int(queue[0])
		queue = queue[1:]
		for _, ei := range d.out[cur] {
			next := int(d.to[ei])
			if !mem.has(next) || prev[next] >= 0 {
				continue
			}
			prev[next] = int32(cur)
			if next == v {
				for at := int(prev[v]); at != u; at = int(prev[at]) {
					wm.set(at)
				}
				return
			}
			queue = append(queue, int32(next))
		}
	}
	panic("summary: no witness path despite established reachability")
}

// detect runs the induced-subgraph cycle search and returns the verdict
// plus, when non-robust, the universe edge indices of the distinguished
// witness edges: (e1, e2, e3) for type II, (-1, -1, cf) for type I.
func (d *SubsetDetector) detect(method Method, members []uint64, s *DetectScratch) (robust bool, e1, e2, e3 int) {
	mem := bitset(members)
	// Reflexive-transitive closures of the induced subgraph. Rows of
	// non-member nodes stay zero, so closure bits double as membership
	// checks for the edge scans below.
	clear(s.backing)
	for i := 0; i < d.n; i++ {
		if mem.has(i) {
			s.reach[i].set(i)
			s.coreach[i].set(i)
		}
	}
	for ei := range d.from {
		fi, ti := int(d.from[ei]), int(d.to[ei])
		if mem.has(fi) && mem.has(ti) {
			s.reach[fi].set(ti)
			s.coreach[ti].set(fi)
		}
	}
	fixpoint(s.reach)
	fixpoint(s.coreach)

	if method == TypeI {
		// A counterflow edge closing back (Graph.HasTypeICycle).
		for _, ei := range d.cf {
			fi, ti := int(d.from[ei]), int(d.to[ei])
			if mem.has(fi) && mem.has(ti) && s.reach[ti].has(fi) {
				return false, -1, -1, int(ei)
			}
		}
		return true, -1, -1, -1
	}

	// Pair-centric type-II search over the induced subgraph. This mirrors
	// Graph.findE1/typeIIPairAt (detect.go) on the detector's parallel
	// arrays and member-filtered closures instead of a materialized graph;
	// the cache encoding is shared (0 unknown, 1 no witness, ei+2 the
	// witness edge index for the pair k = s*n + t) — changes to the scan
	// or the encoding must land in both.
	clear(s.cache)
	findE1 := func(si, ti int) int {
		k := si*d.n + ti
		if v := s.cache[k]; v != 0 {
			return int(v) - 2
		}
		for ei := range d.edges {
			if d.edges[ei].Class != NonCounterflow {
				continue
			}
			// Membership of p1/p2 is implied by the closure bits.
			p1, p2 := int(d.from[ei]), int(d.to[ei])
			if s.coreach[si].has(p2) && s.reach[ti].has(p1) {
				s.cache[k] = int32(ei + 2)
				return ei
			}
		}
		s.cache[k] = 1
		return -1
	}
	for _, e3i := range d.cf {
		m, t := int(d.from[e3i]), int(d.to[e3i])
		if !mem.has(m) || !mem.has(t) {
			continue
		}
		e3edge := d.edges[e3i]
		for _, e2i := range d.in[m] {
			if !mem.has(int(d.from[e2i])) {
				continue
			}
			e2edge := d.edges[e2i]
			if !pairCondition(e2edge, e3edge) {
				continue
			}
			if e1i := findE1(int(d.from[e2i]), t); e1i >= 0 {
				return false, e1i, int(e2i), int(e3i)
			}
		}
	}
	return true, -1, -1, -1
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
