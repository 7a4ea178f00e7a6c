// Package analysis is the incremental analysis engine behind the public
// robustness API: a Session holds a schema and memoizes everything the
// exponential subset enumeration of Figures 6 and 7 would otherwise redo
// per subset — program validation, loop unfolding (each program is unfolded
// exactly once per bound) and the pairwise summary-graph edge blocks of
// Algorithm 1 (computed once per analysis setting) — plus the facts every
// enumeration learns: minimal non-robust cores and robust covers, kept as
// program sets (lattice.go). One lattice walk (walk.go) then enumerates
// the subsets on its caller's goroutine: the cores and covers inside its
// selection decide most of them by containment, and the rest run only the
// cycle detection on the selection's memoized universe graph — composed
// from cached blocks by the walk's first detector miss.
//
// The naive path (re-unfold and re-run Algorithm 1 from scratch for every
// subset) is retained in internal/robust as the oracle for equivalence
// tests; both paths produce byte-identical reports.
package analysis

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btp"
	"repro/internal/obs"
	"repro/internal/relschema"
	"repro/internal/retire"
	"repro/internal/summary"
)

// Config selects how a Session call analyses a program set.
type Config struct {
	// Setting is the analysis setting (granularity × foreign keys). The
	// zero value is attribute granularity without foreign keys; use
	// DefaultConfig for the paper's primary setting.
	Setting summary.Setting
	// Method selects the cycle condition; the zero value is TypeII
	// (Algorithm 2).
	Method summary.Method
	// UnfoldBound overrides the loop-unfolding bound; 0 means the paper's
	// bound of 2 (Proposition 6.1). Bound 1 is unsound in general.
	UnfoldBound int
	// Parallelism is ignored: every check and every subset enumeration
	// runs on the calling goroutine. The field stays only because the
	// service benchmark module sets it.
	Parallelism int
	// Tracer receives phase spans (validate/unfold, Algorithm 1 pair
	// derivation, compose, detect, per-lattice-level, first-verdict) from
	// this analysis. nil — the default — is the no-op: instrumented code
	// branches on nil before calling time.Now, so a disabled tracer adds
	// neither time nor allocations to the hot paths (asserted by the
	// pruned-subsets allocation gate). Tracer never changes a verdict, only
	// what is observed about computing it.
	Tracer obs.Tracer
}

// DefaultConfig returns the paper's primary configuration: attribute
// dependencies with foreign keys, type-II cycles, unfold bound 2.
func DefaultConfig() Config {
	return Config{Setting: summary.SettingAttrDepFK, Method: summary.TypeII}
}

func (c Config) bound() int {
	if c.UnfoldBound > 0 {
		return c.UnfoldBound
	}
	return btp.DefaultUnfoldBound
}

// traceCtx attaches the config's tracer to the context, so the summary
// layer (which has no Config) can pick it up via obs.TracerFrom for the
// pairs sub-span. The nil case returns ctx unchanged — no allocation.
func (c Config) traceCtx(ctx context.Context) context.Context {
	if c.Tracer == nil {
		return ctx
	}
	return obs.WithTracer(ctx, c.Tracer)
}

// Result is the outcome of one robustness check.
type Result struct {
	// Robust is true when the analysis certifies the program set robust
	// against MVRC. The analysis is sound: true is always correct; false
	// may be a false negative (Proposition 6.5).
	Robust bool
	// Witness is a dangerous cycle in the summary graph when not robust.
	Witness *summary.Witness
	// Graph is the constructed summary graph over the unfolded LTPs.
	Graph *summary.Graph
	// LTPs are the unfoldings the graph was built over.
	LTPs []*btp.LTP
}

// unfoldKey identifies one memoized unfolding.
type unfoldKey struct {
	program *btp.Program
	bound   int
}

// Session is the incremental analysis engine for one schema. All methods
// are safe for concurrent use; caches only grow, so a Session can be shared
// across settings, methods, bounds and program sets (cache entries are
// keyed by program pointer, bound and setting).
type Session struct {
	schema *relschema.Schema

	mu        sync.Mutex
	validated map[*btp.Program]error
	unfolded  map[unfoldKey][]*btp.LTP
	blocks    map[summary.Setting]*summary.BlockSet
	// cores holds the minimal non-robust cores discovered by lattice
	// walks, per (setting, method, bound): program sets that are jointly
	// non-robust and minimally so. covers is the robust-side dual (program
	// sets known robust). Each walk seeds its own antichains from the
	// facts inside its selection and appends what it learned; see
	// lattice.go.
	cores  map[coreKey][]fact
	covers map[coreKey][]fact
	// universes memoizes the composed universe graph per exact program
	// selection, so repeated enumerations skip even the warm compose scan.
	universes map[universeKey]*universeEntry
	// retired marks the programs most recently passed to Invalidate:
	// checks that were already in flight may still resolve them, but the
	// results are no longer memoized — re-admitting entries for a replaced
	// program would leak them for the session's lifetime.
	retired retire.Set[*btp.Program]

	// Core-pruning telemetry (see Stats): a core hit is a subset decided
	// non-robust by the core containment scan, a cover hit one decided
	// robust by the cover scan, a miss ran the detector; subsetsPruned is
	// the sum of both hit kinds (detector runs skipped).
	coreHits, coverHits, coreMisses, subsetsPruned atomic.Uint64
}

// NewSession creates an empty session over the schema.
func NewSession(schema *relschema.Schema) *Session {
	return &Session{
		schema:    schema,
		validated: make(map[*btp.Program]error),
		unfolded:  make(map[unfoldKey][]*btp.LTP),
		blocks:    make(map[summary.Setting]*summary.BlockSet),
		cores:     make(map[coreKey][]fact),
		covers:    make(map[coreKey][]fact),
		universes: make(map[universeKey]*universeEntry),
	}
}

// Schema returns the schema the session analyses against.
func (s *Session) Schema() *relschema.Schema { return s.schema }

// LTPs validates the program (once) and returns its memoized unfolding
// under the given bound (0 means the default bound of 2). The returned
// slice is shared — callers must not mutate it.
func (s *Session) LTPs(p *btp.Program, bound int) ([]*btp.LTP, error) {
	if bound <= 0 {
		bound = btp.DefaultUnfoldBound
	}
	s.mu.Lock()
	if s.retired.Has(p) {
		// Serve an in-flight straggler that still holds the replaced
		// program, without re-admitting anything to the caches: the
		// fresh unfolding is retired in every block cache so its pairs
		// are computed on demand but never stored.
		sets := make([]*summary.BlockSet, 0, len(s.blocks))
		for _, bs := range s.blocks {
			sets = append(sets, bs)
		}
		s.mu.Unlock()
		if err := p.Validate(s.schema); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		ltps := btp.Unfold(p, bound)
		for _, bs := range sets {
			bs.Retire(ltps)
		}
		return ltps, nil
	}
	verr, seen := s.validated[p]
	if seen && verr != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("analysis: %w", verr)
	}
	k := unfoldKey{program: p, bound: bound}
	if ltps, ok := s.unfolded[k]; ok {
		s.mu.Unlock()
		return ltps, nil
	}
	// Validate and unfold outside the lock, so concurrent resolutions of
	// different programs (concurrent checks of one session) actually overlap.
	// A racing duplicate computation of the same program is benign: the
	// admission below is store-if-absent, so every caller ends up holding
	// the one memoized unfolding — LTP pointer identity is what the block
	// caches key on.
	s.mu.Unlock()
	if !seen {
		verr = p.Validate(s.schema)
	}
	var ltps []*btp.LTP
	if verr == nil {
		ltps = btp.Unfold(p, bound)
	}
	s.mu.Lock()
	if s.retired.Has(p) {
		// Retired while computing (a concurrent Invalidate): serve without
		// admitting, exactly like the straggler path above.
		sets := make([]*summary.BlockSet, 0, len(s.blocks))
		for _, bs := range s.blocks {
			sets = append(sets, bs)
		}
		s.mu.Unlock()
		if verr != nil {
			return nil, fmt.Errorf("analysis: %w", verr)
		}
		for _, bs := range sets {
			bs.Retire(ltps)
		}
		return ltps, nil
	}
	s.validated[p] = verr
	if verr != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("analysis: %w", verr)
	}
	if existing, ok := s.unfolded[k]; ok {
		ltps = existing // a racer admitted first; use the memoized one
	} else {
		s.unfolded[k] = ltps
	}
	s.mu.Unlock()
	return ltps, nil
}

// Blocks returns the session's shared pairwise edge-block cache for the
// setting, creating it on first use. LTP pointers from different unfold
// bounds never collide: memoization hands out distinct *btp.LTP values per
// (program, bound), so one BlockSet per setting serves all bounds.
func (s *Session) Blocks(setting summary.Setting) *summary.BlockSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	bs, ok := s.blocks[setting]
	if !ok {
		bs = summary.NewBlockSet(s.schema, setting)
		s.blocks[setting] = bs
	}
	return bs
}

// Invalidate drops everything the session has memoized for the program —
// its validation verdict, its unfoldings under every bound, and every
// cached pairwise edge block (in every setting) with one of its LTPs as an
// endpoint — and reports how many pairs were evicted. Blocks between
// untouched programs stay cached, so re-analysing a workload after one
// program changed only recomputes that program's ordered pairs: the
// incremental re-analysis behind the server's PATCH endpoint.
//
// Safe to call concurrently with checks: an in-flight check holding the old
// unfolding simply recomputes (and re-caches) the evicted pairs on demand;
// verdicts never depend on cache contents.
func (s *Session) Invalidate(p *btp.Program) int {
	s.mu.Lock()
	s.retired.Add(p)
	delete(s.validated, p)
	var victims []*btp.LTP
	for k, ltps := range s.unfolded {
		if k.program == p {
			victims = append(victims, ltps...)
			delete(s.unfolded, k)
		}
	}
	// Drop the memoized universe graphs and the core/cover facts touching
	// the program; facts over untouched programs stay — they describe
	// content that did not change, which is what lets a PATCHed workload
	// re-derive only the facts involving the new program.
	for k, e := range s.universes {
		if slices.Contains(e.programs, p) {
			delete(s.universes, k)
		}
	}
	for _, store := range []map[coreKey][]fact{s.cores, s.covers} {
		for k, facts := range store {
			store[k] = slices.DeleteFunc(facts, func(f fact) bool { return slices.Contains(f.programs, p) })
		}
	}
	sets := make([]*summary.BlockSet, 0, len(s.blocks))
	for _, bs := range s.blocks {
		sets = append(sets, bs)
	}
	s.mu.Unlock()
	removed := 0
	for _, bs := range sets {
		removed += bs.Invalidate(victims)
	}
	return removed
}

// Stats is a snapshot of the session's cache telemetry.
type Stats struct {
	// Programs is the number of validated programs currently memoized.
	Programs int
	// Unfoldings is the number of memoized (program, bound) unfoldings.
	Unfoldings int
	// Settings is the number of per-setting block caches in use.
	Settings int
	// Blocks aggregates the pairwise edge-block telemetry across settings.
	Blocks summary.BlockStats
	// Cores is the lattice-pruning telemetry: the minimal non-robust core
	// store and its containment-scan counters.
	Cores CoreStats
}

// CoreStats is the lattice-pruning half of the session telemetry.
type CoreStats struct {
	// Cores is the number of minimal non-robust cores currently stored
	// across all (setting, method, bound) keys; Covers the number of
	// stored robust covers (the anti-monotone dual). Certified counts the
	// stored cores carrying the certification provenance bit: non-robust
	// program sets whose counterexample has been replayed to a concrete
	// non-serializable execution (internal/certify).
	Cores     int
	Covers    int
	Certified int
	// Hits counts subset masks decided non-robust by the core containment
	// scan, CoverHits masks decided robust by the cover scan, Misses masks
	// that ran the detector. Pruned = Hits + CoverHits (detector runs
	// skipped) — the quantity the wire reports as subsets_pruned.
	Hits, CoverHits, Misses, Pruned uint64
	// SizeBytes estimates the core and cover stores' resident memory.
	SizeBytes int64
}

// Rough per-object costs of the core-store size estimate.
const (
	coreEntryBytes   = 64
	coreProgramBytes = 16
)

// factStoresLocked counts the core and cover facts and their estimated
// resident bytes — the one cost model shared by Stats (telemetry) and
// SizeBytes (eviction accounting). Caller holds s.mu.
func (s *Session) factStoresLocked() (cores, covers, certified int, bytes int64) {
	for _, facts := range s.cores {
		cores += len(facts)
		for _, f := range facts {
			if f.certified {
				certified++
			}
			bytes += coreEntryBytes + int64(len(f.programs))*coreProgramBytes
		}
	}
	for _, facts := range s.covers {
		covers += len(facts)
		for _, f := range facts {
			bytes += coreEntryBytes + int64(len(f.programs))*coreProgramBytes
		}
	}
	return cores, covers, certified, bytes
}

// Stats snapshots the session's cache counters across all settings.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Programs:   len(s.validated),
		Unfoldings: len(s.unfolded),
		Settings:   len(s.blocks),
		Cores: CoreStats{
			Hits:      s.coreHits.Load(),
			CoverHits: s.coverHits.Load(),
			Misses:    s.coreMisses.Load(),
			Pruned:    s.subsetsPruned.Load(),
		},
	}
	st.Cores.Cores, st.Cores.Covers, st.Cores.Certified, st.Cores.SizeBytes = s.factStoresLocked()
	sets := make([]*summary.BlockSet, 0, len(s.blocks))
	for _, bs := range s.blocks {
		sets = append(sets, bs)
	}
	s.mu.Unlock()
	for _, bs := range sets {
		st.Blocks.Add(bs.Stats())
	}
	return st
}

// Rough per-object costs of the SizeBytes estimate.
const (
	sessionBaseBytes = 256
	ltpBytes         = 256
	stmtOccBytes     = 96
)

// SizeBytes estimates the session's resident memory: the memoized
// unfoldings, universe graphs (Graph.SizeBytes), fact stores and retired
// set plus every per-setting edge-block cache (BlockSet.SizeBytes).
// It feeds the server's per-workload memory accounting for -max-bytes
// eviction; like the block-cache estimate it is relative, not exact.
func (s *Session) SizeBytes() int64 {
	s.mu.Lock()
	n := int64(sessionBaseBytes) + s.retired.SizeBytes()
	for _, ltps := range s.unfolded {
		for _, l := range ltps {
			n += ltpBytes + int64(len(l.Stmts))*stmtOccBytes
		}
	}
	_, _, _, factBytes := s.factStoresLocked()
	n += factBytes
	for _, e := range s.universes {
		n += e.g.SizeBytes()
	}
	sets := make([]*summary.BlockSet, 0, len(s.blocks))
	for _, bs := range s.blocks {
		sets = append(sets, bs)
	}
	s.mu.Unlock()
	for _, bs := range sets {
		n += bs.SizeBytes()
	}
	return n
}

// ltpUniverse resolves every program's memoized unfolding and the flat
// concatenation in program order.
func (s *Session) ltpUniverse(programs []*btp.Program, bound int) ([][]*btp.LTP, []*btp.LTP, error) {
	groups := make([][]*btp.LTP, len(programs))
	var all []*btp.LTP
	for i, p := range programs {
		ltps, err := s.LTPs(p, bound)
		if err != nil {
			return nil, nil, err
		}
		groups[i] = ltps
		all = append(all, ltps...)
	}
	return groups, all, nil
}

// Check analyses the program set: validate and unfold (memoized), assemble
// the summary graph from cached pairwise blocks, and search for dangerous
// cycles. The graph is identical to the one summary.Build constructs.
func (s *Session) Check(programs []*btp.Program, cfg Config) (*Result, error) {
	return s.CheckCtx(context.Background(), programs, cfg)
}

// CheckCtx is Check under a context, which aborts the summary-graph
// assembly between pair chunks and stages. The whole check runs on the
// calling goroutine.
func (s *Session) CheckCtx(ctx context.Context, programs []*btp.Program, cfg Config) (*Result, error) {
	tr := cfg.Tracer
	var t0 time.Time
	if tr != nil {
		ctx = cfg.traceCtx(ctx)
		t0 = time.Now()
	}
	_, ltps, err := s.ltpUniverse(programs, cfg.bound())
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Span(obs.PhaseValidateUnfold, time.Since(t0))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr != nil {
		t0 = time.Now()
	}
	g, err := summary.ComposeCtx(ctx, s.Blocks(cfg.Setting), ltps, 0)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Span(obs.PhaseCompose, time.Since(t0))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr != nil {
		t0 = time.Now()
	}
	ok, w := g.Robust(cfg.Method)
	if tr != nil {
		tr.Span(obs.PhaseDetect, time.Since(t0))
	}
	return &Result{Robust: ok, Witness: w, Graph: g, LTPs: ltps}, nil
}

// RobustSubsets checks every non-empty subset of the given programs and
// reports the robust and maximal robust ones (Figures 6 and 7). At most
// MaxSubsetPrograms programs are accepted; the enumeration is exponential
// in their number. The walk (walk.go) visits subsets by size, records
// every non-robust discovery as a minimal non-robust core and decides
// supersets of known cores (and subsets of known robust covers) by a
// bitset containment scan instead of running the detector; the remaining
// subsets are decided on the selection's memoized universe graph, so the
// expensive Algorithm 1 side conditions run once per LTP pair overall
// rather than once per subset. A robust selection is decided by one
// detector run on its full set.
// Non-robustness is monotone over induced subgraphs, so the pruning is
// exact and the report is identical to the naive per-subset oracle.
func (s *Session) RobustSubsets(programs []*btp.Program, cfg Config) (*SubsetReport, error) {
	return s.RobustSubsetsCtx(context.Background(), programs, cfg)
}

// RobustSubsetsCtx is RobustSubsets under a context: the walk checks the
// context between subset masks, so a server timeout or client disconnect
// aborts the exponential enumeration mid-flight. On cancellation the
// context's error is returned and the partial verdicts are discarded (the
// block cache keeps whatever pairs were computed, and the fact store every
// core minted — both stay valid). It is the collecting form of
// RobustSubsetsStream: the same walk with no verdict callback.
func (s *Session) RobustSubsetsCtx(ctx context.Context, programs []*btp.Program, cfg Config) (*SubsetReport, error) {
	sum, err := s.walkLattice(ctx, programs, cfg, StreamOptions{}, nil)
	if err != nil {
		return nil, err
	}
	return sum.Report, nil
}
