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
