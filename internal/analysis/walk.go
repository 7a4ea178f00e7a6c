package analysis

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btp"
	"repro/internal/obs"
	"repro/internal/summary"
)

// This file is the one subset-lattice walk behind both RobustSubsetsCtx
// and RobustSubsetsStream: a level-order traversal of the subset lattice
// by subset size that exploits the monotonicity of non-robustness. A
// dangerous cycle witnessed in a subset's induced summary graph survives
// verbatim in every superset (adding nodes only adds edges and
// reachability), so once a subset is known non-robust, every superset is
// non-robust too. The walk records each non-robust discovery as a
// *minimal non-robust core* — the witness cycle's node mask, minimized to
// exact program-level minimality — and decides supersets by an O(#cores)
// bitset-containment scan (summary.CoreSet) instead of running the
// detector at all; robust covers (summary.CoverSet) decide subsets of
// known-robust sets the same way.
//
// Processing strictly by subset size makes the pruning complete and
// deterministic: at the start of level k the shared core set holds exactly
// the minimal non-robust program sets of size < k (plus any seeds), so
// every non-robust mask with a non-robust proper subset is pruned, every
// mask the detector does see and rejects is itself minimal, and the pruned
// count is independent of worker count or scheduling. Cores discovered
// within a level have size k and therefore cannot prune other size-k masks,
// which is why intra-level publication (lock-free, epoch-snapshotted) and
// intra-level visit order are harmless for determinism while still letting
// racing enumerations on a shared session benefit from each other through
// the session store.
//
// The walk takes its detector from the call shape. A collecting walk (no
// verdict callback: RobustSubsetsCtx) decides misses with the selection's
// memoized universe summary.SubsetDetector — every ordered pair composed
// once, each verdict an allocation-free bitmask query — and visits each
// level in ascending mask order. A streaming walk composes each miss's own
// subset graph lazily over the shared BlockSet, so the first verdict costs
// one program's pairs rather than the universe's, and visits each level in
// the cost-ordered schedule of sched.go. Each source loses on the other's
// traffic — lazy composition repeats per-subset block lookups the universe
// detector pays once, and the universe detector composes every pair before
// the first verdict — so both stay, behind one walk. The composed subset
// graph is exactly the universe graph induced on the subset's nodes, so the
// two sources agree verdict for verdict.

// MaxSubsetPrograms is the largest program selection a subset enumeration
// accepts: the lattice has 2^n − 1 subsets, so 20 programs is already a
// million-subset walk. The engine, the naive oracle and the server's
// subsets endpoints all enforce this one limit.
const MaxSubsetPrograms = 20

// latticeParallelMin is the level size below which the level runs inline —
// goroutine handoff costs more than a few dozen detector calls, and the
// paper's benchmarks (n ≤ 9) never leave the inline regime.
const latticeParallelMin = 64

// Per-mask entries of the walk's decision table: how the mask was decided,
// which also fixes its verdict.
const (
	dUndecided uint8 = iota
	dCore            // non-robust: contains a known core
	dCover           // robust: contained in a known cover
	dRobust          // robust: the detector ran
	dNonRobust       // non-robust: the detector ran
)

func robustDecision(d uint8) bool { return d == dCover || d == dRobust }

func decidedName(d uint8) string {
	switch d {
	case dCore:
		return DecidedCore
	case dCover:
		return DecidedCover
	default:
		return DecidedDetector
	}
}

// walker is the per-call state of one lattice walk.
type walker struct {
	cfg         Config
	programs    []*btp.Program
	programMask [][]uint64
	entry       *latticeEntry
	n, words    int

	// decided is the per-mask decision table (d* values); levels holds the
	// current level's masks in visit order.
	decided []uint8
	levels  []int32
	workers []walkWorker

	// Detector source: a collecting walk sets det; a streaming walk sets
	// bs, groups and ltpIdx (witness edge endpoints → universe positions)
	// and orders each level with sched.
	det    *summary.SubsetDetector
	bs     *summary.BlockSet
	groups [][]*btp.LTP
	ltpIdx map[*btp.LTP]int32
	sched  *schedule

	// emit is the verdict callback; nil for a collecting walk. start anchors
	// the first_verdict span when the config carries a tracer; emittedFirst
	// flips after it fires (emission is single-goroutine).
	opts         StreamOptions
	emit         func(StreamVerdict) error
	start        time.Time
	emittedFirst bool

	coreHits, coverHits, misses   atomic.Uint64
	discovered, freshRobust, bail atomic.Bool // bail: a non-robust verdict landed

	sum StreamSummary
}

// walkWorker is one worker's reusable buffers, kept across levels; the
// detector scratch, LTP list and witness mask are allocated on the first
// detector run, so a fully warm walk allocates none of them.
type walkWorker struct {
	members []uint64
	scratch *summary.DetectScratch
	ltps    []*btp.LTP
	wmask   []uint64
}

// membersBuf returns the worker's membership bitset, allocating it on
// first use.
func (ws *walkWorker) membersBuf(words int) []uint64 {
	if ws.members == nil {
		ws.members = make([]uint64, words)
	}
	return ws.members
}

// walkLattice runs one lattice walk over the selection: a collecting walk
// when emit is nil, a streaming one otherwise. Cores minted before any
// exit reach the session fact store; covers are folded and the report
// assembled only when the walk's robust knowledge is complete.
func (s *Session) walkLattice(ctx context.Context, programs []*btp.Program, cfg Config, opts StreamOptions, emit func(StreamVerdict) error) (*StreamSummary, error) {
	n := len(programs)
	if n > MaxSubsetPrograms {
		return nil, fmt.Errorf("analysis: subset enumeration over %d programs exceeds the limit of %d", n, MaxSubsetPrograms)
	}
	tr := cfg.Tracer
	var t0 time.Time
	if tr != nil {
		ctx = cfg.traceCtx(ctx)
		t0 = time.Now()
	}
	groups, all, err := s.ltpUniverse(programs, cfg.bound())
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Span(obs.PhaseValidateUnfold, time.Since(t0))
		t0 = time.Now()
	}
	key := progsKey(programs)
	words := (len(all) + 63) / 64
	widest := binomial(n, n/2)
	w := &walker{
		cfg:      cfg,
		programs: programs,
		n:        n,
		words:    words,
		decided:  make([]uint8, 1<<n),
		levels:   make([]int32, 0, widest),
		workers:  make([]walkWorker, max(1, min(cfg.parallelism(), widest))),
		opts:     opts,
		emit:     emit,
	}
	if emit == nil {
		if w.det, err = s.subsetDetector(ctx, cfg, key, programs, all); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Span(obs.PhaseCompose, time.Since(t0))
		}
	} else {
		w.bs = s.Blocks(cfg.Setting)
		w.groups = groups
		w.ltpIdx = make(map[*btp.LTP]int32, len(all))
		for i, l := range all {
			w.ltpIdx[l] = int32(i)
		}
		w.sched = newSchedule(n)
		if tr != nil {
			w.start = time.Now()
		}
	}
	w.programMask = programMasks(groups, words)
	w.entry = s.latticeFor(cfg, key, programs, w.programMask, words)
	// However the walk exits, the work it did reaches the session
	// telemetry and its discoveries the fact store: cores minted before a
	// cancel, a callback error or an early termination are valid facts, and
	// leaving them only in the cached entry would strand them — a retry
	// would be decided by the entry's unmerged masks, never re-discover
	// them, and the store (and with it persistence and /v1/stats) would
	// stay empty. A walk whose every Add was refused as dominated has
	// nothing the store lacks and skips the merge.
	defer func() {
		ch, cvh := w.coreHits.Load(), w.coverHits.Load()
		s.coreHits.Add(ch)
		s.coverHits.Add(cvh)
		s.coreMisses.Add(w.misses.Load())
		s.subsetsPruned.Add(ch + cvh)
		s.schedChecked.Add(w.sum.SchedChecked)
		s.schedHits.Add(w.sum.SchedHits)
		if w.discovered.Load() {
			s.mergeLattice(cfg, w.entry, programs, w.programMask)
		}
	}()

	if err := w.walk(ctx); err != nil {
		return nil, err
	}
	complete := !w.sum.Terminated || w.sum.Reason == ReasonLevelExhausted
	if complete {
		w.foldCovers()
	}
	w.sum.Checked = int(w.misses.Load())
	w.sum.Pruned = int(w.coreHits.Load() + w.coverHits.Load())
	w.sum.Cores = w.entry.cores.Len()
	if complete {
		w.sum.Report = w.report()
		if opts.Mode == StreamTopK {
			w.sum.TopK = topKBySize(w.sum.Report.Robust, opts.K)
		}
	}
	return &w.sum, nil
}

// walk runs the level loop: list the level's masks (cost-ordered when
// streaming), decide them sequentially or on the worker pool, emit in
// visit order, and evaluate termination at the level barrier.
func (w *walker) walk(ctx context.Context) error {
	for level := 1; level <= w.n; level++ {
		var levelStart time.Time
		if w.cfg.Tracer != nil {
			levelStart = time.Now()
		}
		masks := levelMasks(w.levels, w.n, level)
		w.levels = masks
		if w.sched != nil {
			// Re-estimated before every level: pairs composed by the
			// previous level's detector misses sharpen this level's order.
			w.sched.order(masks, w.bs, w.groups)
		}
		lw := min(len(w.workers), len(masks))
		if len(masks) < latticeParallelMin {
			lw = 1
		}
		if lw <= 1 {
			// Sequential: emit each verdict the moment it is decided, so
			// termination stops the walk mid-level without touching the
			// remaining masks.
			for _, mask := range masks {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := w.process(ctx, int(mask), &w.workers[0]); err != nil {
					return err
				}
				if stop, err := w.emitMask(int(mask)); stop || err != nil {
					w.recordSched(masks)
					return err
				}
			}
		} else {
			// Parallel: the level is decided by the worker pool first (the
			// level barrier needs every verdict anyway), then emitted in
			// visit order — the same emission sequence the sequential walk
			// produces.
			if err := w.decideParallel(ctx, masks, lw); err != nil {
				return err
			}
			for _, mask := range masks {
				if w.decided[mask] == dUndecided {
					continue // skipped by a first_non_robust bail
				}
				if stop, err := w.emitMask(int(mask)); stop || err != nil {
					w.recordSched(masks)
					return err
				}
			}
		}
		w.recordSched(masks)
		if tr := w.cfg.Tracer; tr != nil {
			tr.Span(obs.PhaseLatticeLevel, time.Since(levelStart))
		}
		// The level barrier: supersets are only examined once every smaller
		// mask's verdict (and core) is published. It is the pruning's
		// determinism and completeness argument, so it must not be elided.
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.opts.Mode == StreamMaximalRobust || w.opts.Mode == StreamTopK {
			robustInLevel := false
			for _, mask := range masks {
				if robustDecision(w.decided[mask]) {
					robustInLevel = true
					break
				}
			}
			if !robustInLevel {
				w.sum.Terminated = true
				w.sum.Reason = ReasonLevelExhausted
				return nil
			}
		}
	}
	return nil
}

// decideParallel decides one level's masks on lw pool workers pulling from
// an atomic counter. first_non_robust lets workers bail as soon as any
// non-robust verdict lands; the masks they skip stay undecided.
func (w *walker) decideParallel(ctx context.Context, masks []int32, lw int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, lw)
	for i := 0; i < lw; i++ {
		wg.Add(1)
		go func(ws *walkWorker, slot *error) {
			defer wg.Done()
			defer capturePanic(slot)
			for ctx.Err() == nil && !(w.opts.Mode == StreamFirstNonRobust && w.bail.Load()) {
				j := int(next.Add(1)) - 1
				if j >= len(masks) {
					return
				}
				if err := w.process(ctx, int(masks[j]), ws); err != nil {
					*slot = err
					return
				}
			}
		}(&w.workers[i], &errs[i])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// process decides one mask on a worker's buffers: the core scan
// (non-robust supersets) and the cover scan (robust subsets) first, the
// detector only when neither knows, witness minimization on a fresh
// non-robust discovery.
func (w *walker) process(ctx context.Context, mask int, ws *walkWorker) error {
	w.fillMembers(ws.membersBuf(w.words), mask)
	if w.entry.cores.Snapshot().Contains(ws.members) {
		w.coreHits.Add(1)
		w.decided[mask] = dCore
		w.bail.Store(true)
		return nil
	}
	if w.entry.covers.Snapshot().Covers(ws.members) {
		w.coverHits.Add(1)
		w.decided[mask] = dCover
		return nil
	}
	w.misses.Add(1)
	robust, wmask, err := w.detect(ctx, mask, ws)
	if err != nil {
		return err
	}
	if robust {
		w.decided[mask] = dRobust
		// Robust verdicts are folded into the cover set after the walk:
		// covers can never fire within the walk that found them (stored
		// covers are smaller than the masks still to come), and a post-pass
		// in descending size order pays one antichain insert per maximal
		// cover instead of a copy-on-write add per robust mask.
		w.freshRobust.Store(true)
		return nil
	}
	w.decided[mask] = dNonRobust
	w.bail.Store(true)
	if w.entry.cores.Add(minimizeCore(w.decided, wmask, w.programMask)) {
		w.discovered.Store(true)
	}
	return nil
}

// detect runs the walk's detector on one miss (ws.members holds its node
// mask) and returns the verdict plus, when non-robust, the witness cycle's
// node mask. The universe detector answers on its indexed edge arrays;
// the streaming source composes the subset's own graph from the BlockSet.
func (w *walker) detect(ctx context.Context, mask int, ws *walkWorker) (bool, []uint64, error) {
	tr := w.cfg.Tracer
	var t0 time.Time
	if w.det != nil {
		if ws.scratch == nil {
			ws.scratch = w.det.NewScratch()
		}
		if tr != nil {
			t0 = time.Now()
		}
		ok, wmask := w.det.RobustWitness(w.cfg.Method, ws.members, ws.scratch)
		if tr != nil {
			tr.Span(obs.PhaseDetect, time.Since(t0))
		}
		return ok, wmask, nil
	}
	ws.ltps = ws.ltps[:0]
	for i := 0; i < w.n; i++ {
		if mask&(1<<i) != 0 {
			ws.ltps = append(ws.ltps, w.groups[i]...)
		}
	}
	if tr != nil {
		t0 = time.Now()
	}
	g, err := summary.ComposeCtx(ctx, w.bs, ws.ltps, 0)
	if err != nil {
		return false, nil, err
	}
	if tr != nil {
		tr.Span(obs.PhaseCompose, time.Since(t0))
		t0 = time.Now()
	}
	ok, wit := g.Robust(w.cfg.Method)
	if tr != nil {
		tr.Span(obs.PhaseDetect, time.Since(t0))
	}
	if ok {
		return true, nil, nil
	}
	if ws.wmask == nil {
		ws.wmask = make([]uint64, w.words)
	}
	clear(ws.wmask)
	for _, e := range wit.Cycle {
		fi, ti := w.ltpIdx[e.From], w.ltpIdx[e.To]
		ws.wmask[fi/64] |= 1 << (uint(fi) % 64)
		ws.wmask[ti/64] |= 1 << (uint(ti) % 64)
	}
	return false, ws.wmask, nil
}

// fillMembers writes the node mask of the subset mask's programs.
func (w *walker) fillMembers(members []uint64, mask int) {
	clear(members)
	for i := 0; i < w.n; i++ {
		if mask&(1<<i) != 0 {
			orInto(members, w.programMask[i])
		}
	}
}

// emitMask hands one decided verdict to the callback (a collecting walk
// has none, and modes that stream only robust verdicts skip the rest) and
// evaluates per-verdict termination: the emission budget, and
// first_non_robust's stop.
func (w *walker) emitMask(mask int) (stop bool, err error) {
	if w.emit == nil {
		return false, nil
	}
	robust := robustDecision(w.decided[mask])
	if (w.opts.Mode == StreamMaximalRobust || w.opts.Mode == StreamTopK) && !robust {
		return false, nil
	}
	v := StreamVerdict{
		Programs:  subsetNames(w.programs, mask),
		Size:      bits.OnesCount32(uint32(mask)),
		Robust:    robust,
		DecidedBy: decidedName(w.decided[mask]),
	}
	if err := w.emit(v); err != nil {
		return true, err
	}
	if tr := w.cfg.Tracer; tr != nil && !w.emittedFirst {
		w.emittedFirst = true
		tr.Span(obs.PhaseFirstVerdict, time.Since(w.start))
	}
	w.sum.Emitted++
	if w.opts.MaxSubsets > 0 && w.sum.Emitted >= w.opts.MaxSubsets {
		w.sum.Terminated = true
		w.sum.Reason = ReasonMaxSubsets
		return true, nil
	}
	if w.opts.Mode == StreamFirstNonRobust && !robust {
		w.sum.Terminated = true
		w.sum.Reason = ReasonFirstNonRobust
		return true, nil
	}
	return false, nil
}

// recordSched accumulates a streaming level's scheduler telemetry: of the
// detector-run masks in the first half of the visit order, how many were
// non-robust. Levels with fewer than two detector runs carry no ordering
// signal and are skipped, as are collecting walks (no schedule).
func (w *walker) recordSched(masks []int32) {
	if w.sched == nil {
		return
	}
	det := 0
	for _, mask := range masks {
		if d := w.decided[mask]; d == dRobust || d == dNonRobust {
			det++
		}
	}
	if det < 2 {
		return
	}
	for _, mask := range masks[:len(masks)/2] {
		switch w.decided[mask] {
		case dRobust:
			w.sum.SchedChecked++
		case dNonRobust:
			w.sum.SchedChecked++
			w.sum.SchedHits++
		}
	}
}

// foldCovers folds the walk's detector-decided robust verdicts into the
// cover set, largest masks first: maximal covers insert, everything they
// dominate is refused by an early-exit scan. Only complete walks call it —
// a terminated walk's skipped masks are undecided — and a walk with no
// detector-decided robust verdict (the warm steady state) has nothing new
// to fold.
func (w *walker) foldCovers() {
	if !w.freshRobust.Load() {
		return
	}
	members := w.workers[0].membersBuf(w.words)
	for level := w.n; level >= 1; level-- {
		w.levels = levelMasks(w.levels, w.n, level)
		for _, mask := range w.levels {
			if w.decided[mask] != dRobust {
				continue
			}
			w.fillMembers(members, int(mask))
			if w.entry.covers.Add(members) {
				w.discovered.Store(true)
			}
		}
	}
}

// report builds the deterministic report from the decision table in
// ascending mask order — the order the naive oracle visits — with the
// walk's pruning telemetry.
func (w *walker) report() *SubsetReport {
	var robust []Subset
	for mask := 1; mask < len(w.decided); mask++ {
		if robustDecision(w.decided[mask]) {
			robust = append(robust, subsetNames(w.programs, mask))
		}
	}
	rep := NewSubsetReport(robust)
	rep.Checked = w.sum.Checked
	rep.Pruned = w.sum.Pruned
	rep.Cores = w.sum.Cores
	rep.CertifiedCores = w.entry.cores.CertifiedLen()
	return rep
}

// schedule is a streaming walk's cost-ordering state (sched.go), reused
// across levels. static memoizes the footprint priors for the whole walk
// (they cannot change); NaN marks a pair not yet computed.
type schedule struct {
	static, weights, scores []float64
}

func newSchedule(n int) *schedule {
	sc := &schedule{static: make([]float64, n*n)}
	for i := range sc.static {
		sc.static[i] = math.NaN()
	}
	return sc
}

// order sorts one level's masks in place into the cost-ordered visit order.
func (sc *schedule) order(masks []int32, bs *summary.BlockSet, groups [][]*btp.LTP) {
	sc.weights = pairWeights(sc.weights, bs, groups, sc.static)
	sc.scores = orderLevel(masks, sc.scores, len(groups), sc.weights)
}

// levelMasks fills dst with the size-k subset masks of an n-program
// lattice in ascending order: Gosper's hack steps to the next larger
// integer with the same popcount.
func levelMasks(dst []int32, n, k int) []int32 {
	dst = dst[:0]
	for m := uint32(1)<<k - 1; m < 1<<n; {
		dst = append(dst, int32(m))
		c := m & -m
		r := m + c
		m = (((r ^ m) >> 2) / c) | r
	}
	return dst
}

// binomial returns C(n, k), the size of lattice level k.
func binomial(n, k int) int {
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
	}
	return c
}

// minimizeCore reduces a witness node mask, in place, to a program-level
// minimal non-robust core without running the detector: every trial (the
// witness programs minus one) is a strict submask of the current subset
// and was therefore decided at an earlier level — its verdict is already
// in the decision table. Greedily dropping, in ascending program order,
// every program whose removal leaves a non-robust verdict yields a minimal
// set (one fixed-order pass suffices for monotone properties). In a fully
// cold walk the witness programs are provably minimal already and every
// trial reads robust; the lookups also keep the general path — seeds from
// other universes or imported non-minimal facts — honest, at the cost of
// bit operations instead of closure recomputations.
func minimizeCore(decided []uint8, wmask []uint64, programMask [][]uint64) []uint64 {
	progs := 0
	for i, pm := range programMask {
		if intersects(pm, wmask) {
			progs |= 1 << i
		}
	}
	for i := 0; i < len(programMask); i++ {
		if progs&(1<<i) == 0 {
			continue
		}
		if trial := progs &^ (1 << i); trial != 0 && !robustDecision(decided[trial]) {
			progs = trial
		}
	}
	clear(wmask)
	for i, pm := range programMask {
		if progs&(1<<i) != 0 {
			orInto(wmask, pm)
		}
	}
	return wmask
}

// subsetNames renders a mask as sorted program short names.
func subsetNames(programs []*btp.Program, mask int) []string {
	names := make([]string, 0, bits.OnesCount32(uint32(mask)))
	for i := range programs {
		if mask&(1<<i) != 0 {
			names = append(names, programs[i].ShortName())
		}
	}
	sort.Strings(names)
	return names
}
