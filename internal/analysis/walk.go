package analysis

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
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
// *minimal non-robust core* — the witness cycle's programs, minimized to
// exact program-level minimality — and decides supersets by a
// containment scan over its core masks instead of running the detector
// at all; robust covers decide subsets of known-robust sets the same way.
// A selection has at most MaxSubsetPrograms programs, so every subset,
// core and cover is one uint32 program mask and containment one AND-NOT.
// Each walk owns its two mask antichains, seeded from the session's facts
// inside its selection (lattice.go) and merged back when it ends.
//
// Processing strictly by subset size makes the pruning complete and
// deterministic: at the start of level k the walk's core set holds exactly
// the minimal non-robust program sets of size < k (plus any seeds), so
// every non-robust mask with a non-robust proper subset is pruned and every
// mask the detector does see and rejects is itself minimal. A core minted
// at level k has k programs and decides no other mask of its level, so the
// walk inserts it at once without changing any verdict of that level.
//
// Robustness is closed under subsets, so before level 1 the walk runs the
// detector once on the full selection when no seeded fact decides it: a
// robust verdict makes the full mask the walk's cover and decides every
// other mask by containment — one detector run for the whole lattice of a
// robust selection such as Auction(n) under foreign keys. A non-robust
// verdict is discarded and counts nowhere; the bottom-up walk mints the
// minimal cores it implies.
//
// The walk runs on its caller's goroutine with one detector scratch; a
// panic anywhere in it returns as a *PanicError.
//
// Every walk, collecting (RobustSubsetsCtx) or streaming
// (RobustSubsetsStream), visits each level in ascending mask order and has
// one detector: Graph.RobustWitness over the subset's node mask on the
// selection's memoized universe graph. The first detector run — the probe,
// on a cold walk — fetches or composes that graph, so a walk that
// containment decides entirely — a warm session, or one seeded from
// restored facts — composes nothing; a cold stream's first verdict waits
// for the compose and the probe.

// MaxSubsetPrograms is the largest program selection a subset enumeration
// accepts: the lattice has 2^n − 1 subsets, so 20 programs is already a
// million-subset walk. The engine, the naive oracle and the server's
// subsets endpoints all enforce this one limit.
const MaxSubsetPrograms = 20

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
	n, words    int

	// cores and covers are the walk's own antichains of program masks,
	// seeded from the session's facts inside the selection; discovered
	// flips when the walk inserts one of its own.
	cores, covers antichain
	discovered    bool

	// decided is the per-mask decision table (d* values); levels holds the
	// current level's masks in ascending order.
	decided []uint8
	levels  []int32

	// The detector: the graph over all (the selection's LTPs in program
	// order), fetched or composed from sess by the first miss together with
	// its scratch and membership bitset, so a fully warm walk allocates none
	// of them.
	sess     *Session
	all      []*btp.LTP
	universe *summary.Graph
	scratch  *summary.DetectScratch
	members  []uint64

	// coreHits and coverHits count the masks containment decided, misses
	// the masks the detector decided, each where the level loop reaches
	// it: a walk cut short counts only the masks it visited.
	coreHits, coverHits, misses int

	// emit is the verdict callback; nil for a collecting walk. start anchors
	// the first_verdict span when the config carries a tracer; emittedFirst
	// flips after it fires.
	opts         StreamOptions
	emit         func(StreamVerdict) error
	start        time.Time
	emittedFirst bool

	sum StreamSummary
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
	words := (len(all) + 63) / 64
	w := &walker{
		cfg:         cfg,
		programs:    programs,
		programMask: programMasks(groups, words),
		n:           n,
		words:       words,
		covers:      antichain{up: true},
		decided:     make([]uint8, 1<<n),
		levels:      make([]int32, 0, binomial(n, n/2)),
		sess:        s,
		all:         all,
		opts:        opts,
		emit:        emit,
		start:       t0,
	}
	k := coreKey{setting: cfg.Setting, method: cfg.Method, bound: cfg.bound()}
	s.seedWalk(k, programs, &w.cores, &w.covers)

	err = w.run(ctx)
	// However the walk exits, the work it did reaches the session
	// telemetry and its discoveries the fact store: cores minted before a
	// cancel, a callback error or an early termination are valid facts,
	// and a retry seeds from them instead of re-discovering them. Only a
	// complete walk folds covers — a terminated walk's skipped masks
	// are undecided — and only one that ran the detector has robust
	// verdicts no stored cover already decides (the warm steady state has
	// none).
	complete := err == nil && (!w.sum.Terminated || w.sum.Reason == ReasonLevelExhausted)
	if complete && w.misses > 0 {
		w.foldCovers()
	}
	s.coreHits.Add(uint64(w.coreHits))
	s.coverHits.Add(uint64(w.coverHits))
	s.coreMisses.Add(uint64(w.misses))
	s.subsetsPruned.Add(uint64(w.coreHits + w.coverHits))
	if w.discovered {
		s.mergeWalk(k, programs, &w.cores, &w.covers)
	}
	if err != nil {
		return nil, err
	}
	w.sum.Checked = w.misses
	w.sum.Pruned = w.coreHits + w.coverHits
	w.sum.Cores = len(w.cores.facts)
	w.sum.NewFacts = w.discovered
	if complete {
		if w.sum.Report, err = w.report(ctx); err != nil {
			return nil, err
		}
		if opts.Mode == StreamTopK {
			w.sum.TopK = topKBySize(w.sum.Report.Robust, opts.K)
		}
	}
	return &w.sum, nil
}

// run probes the full selection, then walks the levels. A panic anywhere
// in the walk — the detector, a tracer, the verdict callback — returns as
// a *PanicError, so a server answers it like any other engine error.
func (w *walker) run(ctx context.Context) (err error) {
	defer CapturePanic(&err)
	if err := w.probe(ctx); err != nil {
		return err
	}
	return w.walk(ctx)
}

// probe runs the detector on the full selection when no seeded fact decides
// it. A robust verdict decides the full mask and becomes the walk's cover,
// so containment decides every other mask; a non-robust one is discarded.
// The run counts when the level loop reaches the full mask.
func (w *walker) probe(ctx context.Context) error {
	full := uint32(1)<<w.n - 1
	if full == 0 || w.cores.decides(full) || w.covers.decides(full) {
		return nil
	}
	robust, _, err := w.detect(ctx, int(full))
	if err != nil || !robust {
		return err
	}
	w.decided[full] = dRobust
	if w.covers.add(full, false) {
		w.discovered = true
	}
	return nil
}

// walk runs the level loop: list the level's masks in ascending order,
// decide and emit each in turn, and evaluate level termination when the
// level ends.
func (w *walker) walk(ctx context.Context) error {
	for level := 1; level <= w.n; level++ {
		var levelStart time.Time
		if w.cfg.Tracer != nil {
			levelStart = time.Now()
		}
		w.levels = levelMasks(w.levels, w.n, level)
		// Each verdict is emitted the moment it is decided, so termination
		// stops the walk mid-level without touching the remaining masks.
		for _, mask := range w.levels {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := w.process(ctx, int(mask)); err != nil {
				return err
			}
			if stop, err := w.emitMask(int(mask)); stop || err != nil {
				return err
			}
		}
		if tr := w.cfg.Tracer; tr != nil {
			tr.Span(obs.PhaseLatticeLevel, time.Since(levelStart))
		}
		if w.opts.Mode == StreamMaximalRobust || w.opts.Mode == StreamTopK {
			robustInLevel := false
			for _, mask := range w.levels {
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

// process decides one mask: the full mask the probe decided counts its
// detector run; then the core scan (non-robust supersets) and the cover
// scan (robust subsets), the detector only when neither knows, and witness
// minimization on a fresh non-robust discovery.
func (w *walker) process(ctx context.Context, mask int) error {
	switch {
	case w.decided[mask] != dUndecided:
		w.misses++
		return nil
	case w.cores.decides(uint32(mask)):
		w.coreHits++
		w.decided[mask] = dCore
		return nil
	case w.covers.decides(uint32(mask)):
		w.coverHits++
		w.decided[mask] = dCover
		return nil
	}
	w.misses++
	robust, wmask, err := w.detect(ctx, mask)
	if err != nil {
		return err
	}
	if robust {
		// Robust verdicts are folded into the cover set after the walk:
		// covers can never fire within the walk that found them (stored
		// covers are smaller than the masks still to come), and a post-pass
		// in descending size order inserts only the maximal ones.
		w.decided[mask] = dRobust
		return nil
	}
	w.decided[mask] = dNonRobust
	if w.cores.add(minimizeCore(w.decided, wmask, w.programMask), false) {
		w.discovered = true
	}
	return nil
}

// detect decides one mask on the selection's universe graph and returns
// the verdict plus, when non-robust, the witness cycle's node mask.
func (w *walker) detect(ctx context.Context, mask int) (bool, []uint64, error) {
	if w.universe == nil {
		g, err := w.sess.universeGraph(ctx, w.cfg, w.programs, w.all)
		if err != nil {
			return false, nil, err
		}
		w.universe, w.scratch, w.members = g, g.NewScratch(), make([]uint64, w.words)
	}
	w.fillMembers(w.members, mask)
	tr := w.cfg.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	ok, wmask := w.universe.RobustWitness(w.cfg.Method, w.members, w.scratch)
	if tr != nil {
		tr.Span(obs.PhaseDetect, time.Since(t0))
	}
	return ok, wmask, nil
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

// foldCovers folds the walk's detector-decided robust verdicts into the
// cover set, largest masks first: maximal covers insert, everything they
// dominate is refused by an early-exit scan.
func (w *walker) foldCovers() {
	for level := w.n; level >= 1; level-- {
		w.levels = levelMasks(w.levels, w.n, level)
		for _, mask := range w.levels {
			if w.decided[mask] == dRobust && w.covers.add(uint32(mask), false) {
				w.discovered = true
			}
		}
	}
}

// report assembles the report from the decision table, with the walk's
// pruning telemetry.
func (w *walker) report(ctx context.Context) (*SubsetReport, error) {
	names := make([]string, w.n)
	for i, p := range w.programs {
		names[i] = p.ShortName()
	}
	rep, err := NewSubsetReport(ctx, names, func(mask uint32) bool { return robustDecision(w.decided[mask]) })
	if err != nil {
		return nil, err
	}
	rep.Checked = w.sum.Checked
	rep.Pruned = w.sum.Pruned
	rep.Cores = w.sum.Cores
	rep.CertifiedCores = w.cores.certifiedLen()
	return rep, nil
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

// minimizeCore reduces a witness node mask to the program mask of a
// program-level minimal non-robust core without running the detector:
// every trial (the witness programs minus one) is a strict submask of the
// current subset and was therefore decided at an earlier level — its
// verdict is already in the decision table. Greedily dropping, in
// ascending program order, every program whose removal leaves a
// non-robust verdict yields a minimal set (one fixed-order pass suffices
// for monotone properties). In a fully cold walk the witness programs are
// provably minimal already and every trial reads robust; the lookups also
// keep the general path — seeds from other selections or imported
// non-minimal facts — honest, at the cost of bit operations instead of
// closure recomputations.
func minimizeCore(decided []uint8, wmask []uint64, programMask [][]uint64) uint32 {
	var progs uint32
	for i, pm := range programMask {
		if intersects(pm, wmask) {
			progs |= 1 << i
		}
	}
	for i := range programMask {
		if progs&(1<<i) == 0 {
			continue
		}
		if trial := progs &^ (1 << i); trial != 0 && !robustDecision(decided[trial]) {
			progs = trial
		}
	}
	return progs
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
