package analysis

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/btp"
	"repro/internal/obs"
	"repro/internal/summary"
)

// This file is the fact store behind the lattice walk (walk.go). Cores
// are facts about program *content*: "these programs are jointly
// non-robust under this (setting, method, bound), and minimally so" —
// independent of which enumeration discovered them. The session keeps
// them, and the robust covers, as two plain lists of program sets per
// coreKey. A walk seeds its own pair of program-mask antichains from the
// facts that lie inside its selection and appends what it learned that
// the store lacks when it ends, so a warm session prunes every non-robust
// subset without a single detector run. Session.Invalidate drops exactly
// the facts (and memoized universe graphs) touching the invalidated
// program — the incremental half the server's PATCH path relies on.

// coreKey identifies one core store: cores depend on the analysis setting,
// the cycle condition and the unfold bound, never on the program selection.
type coreKey struct {
	setting summary.Setting
	method  summary.Method
	bound   int
}

// fact is one stored core or cover: a program set and, for cores, the
// certification bit — true when the core's non-robustness has been proven
// by a replayed non-serializable execution (internal/certify).
type fact struct {
	programs  []*btp.Program
	certified bool
}

// universeKey identifies one memoized universe graph: the exact ordered
// program selection under a setting and bound.
type universeKey struct {
	setting summary.Setting
	bound   int
	progs   string
}

// universeEntry is one memoized universe graph with the programs it covers
// (kept for pointer-level invalidation).
type universeEntry struct {
	g        *summary.Graph
	programs []*btp.Program
}

// progsKey renders an ordered program list as a map key. Pointer identity
// is the right notion: the session memoizes per program pointer, and a
// PATCHed program is a fresh pointer. Hand-rolled (strconv over fmt): this
// runs on every enumeration and %p formatting showed up in profiles.
func progsKey(programs []*btp.Program) string {
	buf := make([]byte, 0, 13*len(programs))
	for _, p := range programs {
		buf = strconv.AppendUint(buf, uint64(uintptr(unsafe.Pointer(p))), 36)
		buf = append(buf, '|')
	}
	return string(buf)
}

// coreID renders a program set as a canonical key (sorted pointer
// renderings — names can repeat across patched generations, pointers
// cannot).
func coreID(core []*btp.Program) string {
	parts := make([]string, len(core))
	for i, p := range core {
		parts[i] = strconv.FormatUint(uint64(uintptr(unsafe.Pointer(p))), 36)
	}
	slices.Sort(parts)
	return strings.Join(parts, "|")
}

// maskFact is one entry of a walk's antichain: a program mask over the
// walk's selection (bit i stands for programs[i]) and the certification
// bit of the core it records.
type maskFact struct {
	mask      uint32
	certified bool
}

// antichain is one walk's core or cover set, kept free of masks another
// entry decides: a core decides its supersets, a cover (up) its subsets.
// A selection has at most MaxSubsetPrograms programs, so a mask is one
// word and containment one AND-NOT.
type antichain struct {
	up    bool
	facts []maskFact
}

// decidesMask reports whether mask x decides mask y in the antichain's
// direction (equality included).
func (a *antichain) decidesMask(x, y uint32) bool {
	if a.up {
		return y&^x == 0
	}
	return x&^y == 0
}

// decides reports whether some entry decides the mask: for cores, the
// subset is known non-robust; for covers, known robust.
func (a *antichain) decides(mask uint32) bool {
	for _, f := range a.facts {
		if a.decidesMask(f.mask, mask) {
			return true
		}
	}
	return false
}

// add inserts a mask unless an entry already decides it, and drops the
// entries it decides. A certified add of a mask already stored sets that
// entry's bit; an entry that strictly dominates the mask is a different
// program set, which the certificate does not speak about. Reports
// whether the mask was inserted.
func (a *antichain) add(mask uint32, certified bool) bool {
	for i, f := range a.facts {
		if a.decidesMask(f.mask, mask) {
			if certified && f.mask == mask {
				a.facts[i].certified = true
			}
			return false
		}
	}
	kept := a.facts[:0]
	for _, f := range a.facts {
		if !a.decidesMask(mask, f.mask) {
			kept = append(kept, f)
		}
	}
	a.facts = append(kept, maskFact{mask: mask, certified: certified})
	return true
}

// certifiedLen counts the entries carrying the certification bit.
func (a *antichain) certifiedLen() int {
	n := 0
	for _, f := range a.facts {
		if f.certified {
			n++
		}
	}
	return n
}

// selectionMask maps a fact's programs onto a selection: bit i for
// programs[i]; ok is false when some program lies outside the selection.
func selectionMask(programs, set []*btp.Program) (mask uint32, ok bool) {
	for _, p := range set {
		i := slices.Index(programs, p)
		if i < 0 {
			return 0, false
		}
		mask |= 1 << i
	}
	return mask, true
}

// seedWalk fills a walk's antichains with the stored facts inside its
// selection.
func (s *Session) seedWalk(k coreKey, programs []*btp.Program, cores, covers *antichain) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seed := func(a *antichain, facts []fact) {
		a.facts = make([]maskFact, 0, len(facts))
		for _, f := range facts {
			if m, ok := selectionMask(programs, f.programs); ok {
				a.add(m, f.certified)
			}
		}
	}
	seed(cores, s.cores[k])
	seed(covers, s.covers[k])
}

// mergeWalk appends the walk's cores and covers the store lacks. Facts
// touching a program invalidated mid-walk are dropped.
func (s *Session) mergeWalk(k coreKey, programs []*btp.Program, cores, covers *antichain) {
	s.mu.Lock()
	defer s.mu.Unlock()
	merge := func(store map[coreKey][]fact, a *antichain) {
		facts := store[k]
	next:
		for _, e := range a.facts {
			for _, f := range facts {
				if m, ok := selectionMask(programs, f.programs); ok && m == e.mask {
					continue next
				}
			}
			set := make([]*btp.Program, 0, bits.OnesCount32(e.mask))
			for i, p := range programs {
				if e.mask&(1<<i) != 0 {
					set = append(set, p)
				}
			}
			if !s.retiredAny(set) {
				facts = append(facts, fact{programs: set})
			}
		}
		store[k] = facts
	}
	merge(s.cores, cores)
	merge(s.covers, covers)
}

// retiredAny reports whether the set names an invalidated program. Caller
// holds s.mu.
func (s *Session) retiredAny(set []*btp.Program) bool {
	for _, p := range set {
		if s.retired.Has(p) {
			return true
		}
	}
	return false
}

// selectionCacheMax bounds the per-selection universe-graph memo: a
// workload of n programs admits up to 2^n distinct ordered selections,
// and a long-lived server must not grow a session map per request shape.
// The map is a pure accelerator — dropping it costs one warm compose
// scan, never a verdict — so overflow handling is the simplest correct
// thing: clear and let the hot selections repopulate. The durable
// knowledge (core and cover facts, edge blocks) lives in the bounded
// stores, not here.
const selectionCacheMax = 256

// CoreFact is one exported minimal non-robust core: the programs are
// jointly non-robust under the configuration and removing any one of them
// flips the verdict to robust. The server persists facts (as program names)
// alongside the result cache and re-seeds them on boot, so a restarted or
// partially PATCH-invalidated server re-derives only cores touching changed
// programs.
type CoreFact struct {
	Setting  summary.Setting
	Method   summary.Method
	Bound    int
	Programs []*btp.Program
	// Certified marks a core whose non-robustness has been proven by a
	// concrete replayed non-serializable execution (internal/certify), not
	// only by the sound-but-incomplete static cycle condition. The bit is
	// provenance: it never changes a verdict, but it upgrades "candidate
	// counterexample" to "machine-checked counterexample" in snapshots,
	// /v1/stats and subset reports. Meaningless (always false) for covers.
	Certified bool
}

// ExportCores snapshots every core fact the session has accumulated, in a
// deterministic order (keys sorted, programs within a fact sorted by short
// name, facts by those names). ExportCovers is the robust-side dual.
func (s *Session) ExportCores() []CoreFact { return s.exportFacts(s.cores) }

// ExportCovers snapshots every robust-cover fact: program sets known
// jointly robust. Like cores they are content-intrinsic, so the server
// persists and re-seeds them the same way.
func (s *Session) ExportCovers() []CoreFact { return s.exportFacts(s.covers) }

func (s *Session) exportFacts(store map[coreKey][]fact) []CoreFact {
	s.mu.Lock()
	out := make([]CoreFact, 0, 16)
	for k, facts := range store {
		for _, f := range facts {
			out = append(out, CoreFact{Setting: k.setting, Method: k.method, Bound: k.bound, Programs: slices.Clone(f.programs), Certified: f.certified})
		}
	}
	s.mu.Unlock()
	byName := func(p, q *btp.Program) int { return strings.Compare(p.ShortName(), q.ShortName()) }
	for _, f := range out {
		slices.SortFunc(f.Programs, byName)
	}
	// The order depends on content only: the pointer key breaks ties
	// between facts whose programs share every short name.
	slices.SortFunc(out, func(a, b CoreFact) int {
		if a.Setting != b.Setting {
			return strings.Compare(a.Setting.String(), b.Setting.String())
		}
		if c := cmp.Or(cmp.Compare(a.Method, b.Method), cmp.Compare(a.Bound, b.Bound),
			slices.CompareFunc(a.Programs, b.Programs, byName)); c != 0 {
			return c
		}
		return strings.Compare(coreID(a.Programs), coreID(b.Programs))
	})
	return out
}

// ImportCores seeds the session with core facts (deduplicated; facts whose
// programs have been invalidated are skipped) and reports how many changed
// the store: new facts, and certification bits set on known ones. The
// facts are trusted — the server only imports from snapshots whose content
// fingerprint verified — and used purely for pruning, so an absent fact
// costs a detector run, a correct one saves it.
func (s *Session) ImportCores(facts []CoreFact) int { return s.importFacts(facts, s.cores) }

// ImportCovers seeds the session with robust-cover facts; the dual of
// ImportCores.
func (s *Session) ImportCovers(facts []CoreFact) int { return s.importFacts(facts, s.covers) }

// CertifyCore marks the program set as a *certified* non-robust core under
// the configuration: its non-robustness has been witnessed by a concrete
// replayed non-serializable execution (internal/certify), not only by the
// static cycle condition. The fact is inserted if the store does not hold
// it yet (a certificate is also a proof of non-robustness) and its
// certification bit is set either way, so subsequent subset reports carry
// the provenance. Returns true when the store changed (the core was new or
// newly certified); false for an already-certified core or a retired
// program.
func (s *Session) CertifyCore(cfg Config, core []*btp.Program) bool {
	return s.ImportCores([]CoreFact{{Setting: cfg.Setting, Method: cfg.Method, Bound: cfg.bound(), Programs: core, Certified: true}}) == 1
}

func (s *Session) importFacts(facts []CoreFact, store map[coreKey][]fact) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for _, f := range facts {
		if len(f.Programs) == 0 || s.retiredAny(f.Programs) {
			continue
		}
		bound := f.Bound
		if bound <= 0 {
			bound = btp.DefaultUnfoldBound
		}
		k := coreKey{setting: f.Setting, method: f.Method, bound: bound}
		i := slices.IndexFunc(store[k], func(g fact) bool { return sameSet(g.programs, f.Programs) })
		switch {
		case i < 0:
			store[k] = append(store[k], fact{programs: slices.Clone(f.Programs), certified: f.Certified})
		case f.Certified && !store[k][i].certified:
			store[k][i].certified = true
		default:
			continue
		}
		added++
	}
	return added
}

// sameSet reports whether two duplicate-free program sets are equal.
func sameSet(a, b []*btp.Program) bool {
	if len(a) != len(b) {
		return false
	}
	for _, p := range a {
		if !slices.Contains(b, p) {
			return false
		}
	}
	return true
}

// universeGraph returns the memoized universe graph for the exact program
// selection, composing (and caching) it on first use; every walk, streams
// included, decides its detector misses on it with Graph.RobustWitness and
// asks for it only on its first miss. Verdicts never
// depend on cache contents, so a straggler using a just-invalidated graph
// is correct, merely cold next time.
func (s *Session) universeGraph(ctx context.Context, cfg Config, programs []*btp.Program, all []*btp.LTP) (*summary.Graph, error) {
	key := universeKey{setting: cfg.Setting, bound: cfg.bound(), progs: progsKey(programs)}
	s.mu.Lock()
	if e, ok := s.universes[key]; ok {
		s.mu.Unlock()
		return e.g, nil
	}
	s.mu.Unlock()
	var t0 time.Time
	if cfg.Tracer != nil {
		t0 = time.Now()
	}
	g, err := summary.ComposeCtx(ctx, s.Blocks(cfg.Setting), all, 0)
	if err != nil {
		return nil, err
	}
	if cfg.Tracer != nil {
		cfg.Tracer.Span(obs.PhaseCompose, time.Since(t0))
	}
	s.mu.Lock()
	if !s.retiredAny(programs) {
		if len(s.universes) >= selectionCacheMax {
			clear(s.universes) // see selectionCacheMax
		}
		s.universes[key] = &universeEntry{g: g, programs: slices.Clone(programs)}
	}
	s.mu.Unlock()
	return g, nil
}

// --- Bitset helpers over []uint64 masks -------------------------------------

func orInto(dst, src []uint64) {
	for w, v := range src {
		dst[w] |= v
	}
}

func intersects(a, b []uint64) bool {
	for w, v := range a {
		if v&b[w] != 0 {
			return true
		}
	}
	return false
}

// programMasks computes, per program, the node mask of its LTP indices
// within the universe (groups concatenated in program order).
func programMasks(groups [][]*btp.LTP, words int) [][]uint64 {
	out := make([][]uint64, len(groups))
	backing := make([]uint64, len(groups)*words)
	idx := 0
	for i, g := range groups {
		m := backing[i*words : (i+1)*words : (i+1)*words]
		for range g {
			m[idx/64] |= 1 << (uint(idx) % 64)
			idx++
		}
		out[i] = m
	}
	return out
}
