package analysis

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/btp"
	"repro/internal/summary"
)

// This file is the fact store behind the lattice walk (walk.go). Cores
// are facts about program *content*: "these programs are jointly
// non-robust under this (setting, method, bound), and minimally so" —
// independent of which enumeration discovered them. The session therefore
// keeps them per coreKey as program-pointer sets, seeds every enumeration
// whose request covers a core's programs, and merges fresh discoveries
// back, so a warm session prunes every non-robust subset without a single
// detector run. Robust covers are kept the same way. Session.Invalidate
// drops exactly the cores (and memoized universe graphs) touching the
// invalidated program — the incremental half the server's PATCH path
// relies on.

// coreKey identifies one core store: cores depend on the analysis setting,
// the cycle condition and the unfold bound, never on the program selection.
type coreKey struct {
	setting summary.Setting
	method  summary.Method
	bound   int
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

// coreID renders a program set as a canonical dedup key (sorted pointer
// renderings — names can repeat across patched generations, pointers
// cannot).
func coreID(core []*btp.Program) string {
	parts := make([]string, len(core))
	for i, p := range core {
		parts[i] = strconv.FormatUint(uint64(uintptr(unsafe.Pointer(p))), 36)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// latticeKey identifies one cached pruning state: the configuration plus
// the exact ordered program selection (core and cover masks are relative to
// that selection's node universe).
type latticeKey struct {
	core  coreKey
	progs string
}

// latticeEntry is the per-selection pruning state shared by every
// enumeration of that selection — the lock-free core and cover sets — plus
// the store generation it was last synchronized against. Sharing the entry
// means a warm repeat pays zero seeding; the generation check re-seeds only
// when a *different* selection's enumeration contributed new facts to the
// store in the meantime.
type latticeEntry struct {
	cores    *summary.CoreSet
	covers   *summary.CoverSet
	gen      uint64
	programs []*btp.Program
}

// factLog is one direction's fact store for a coreKey: the facts in
// insertion order, with the store generation each landed at (gens is
// parallel to facts and non-decreasing — merges stamp the post-bump
// generation). The ordering is what turns the generation check of
// latticeFor into a delta feed: an entry synced at generation g consumes
// only the suffix of facts with a newer stamp, instead of re-scanning the
// whole store on every bump. certs is the parallel certification column:
// true for cores whose non-robustness has been proven by a replayed
// non-serializable execution (internal/certify); always false for covers.
type factLog struct {
	facts [][]*btp.Program
	gens  []uint64
	certs []bool
}

// factsSince returns the facts inserted after the given generation (the
// delta a cached lattice entry has not seen) together with their
// certification bits. Binary search over the monotone gens column;
// nil-safe for absent logs.
func (l *factLog) factsSince(gen uint64) ([][]*btp.Program, []bool) {
	if l == nil {
		return nil, nil
	}
	i := sort.Search(len(l.gens), func(i int) bool { return l.gens[i] > gen })
	return l.facts[i:], l.certs[i:]
}

// append records a fact at the given generation.
func (l *factLog) append(fact []*btp.Program, gen uint64, cert bool) {
	l.facts = append(l.facts, fact)
	l.gens = append(l.gens, gen)
	l.certs = append(l.certs, cert)
}

// latticeFor returns the pruning state for the selection, creating and
// seeding it from the session's fact store on first use and feeding it
// only the facts newer than its synced generation (idempotent Adds) when
// the store generation moved.
func (s *Session) latticeFor(cfg Config, progs string, programs []*btp.Program, programMask [][]uint64, words int) *latticeEntry {
	ck := coreKey{setting: cfg.Setting, method: cfg.Method, bound: cfg.bound()}
	key := latticeKey{core: ck, progs: progs}
	s.mu.Lock()
	gen := s.coreGen[ck]
	e, ok := s.lattices[key]
	if ok && e.gen == gen {
		s.mu.Unlock()
		return e
	}
	// Delta feed: a cached entry consumes only the facts stamped after its
	// synced generation; a fresh entry's since of 0 selects the whole log.
	// The suffix slices stay valid outside the lock — merges append and
	// Invalidate swaps in fresh logs, neither mutates published prefixes.
	since := uint64(0)
	if ok {
		since = e.gen
	}
	coreFacts, coreCerts := s.cores[ck].factsSince(since)
	coverFacts, _ := s.covers[ck].factsSince(since)
	if !ok {
		e = &latticeEntry{
			cores:    summary.NewCoreSet(words),
			covers:   summary.NewCoverSet(words),
			programs: append([]*btp.Program(nil), programs...),
		}
	}
	s.mu.Unlock()
	s.factsSeeded.Add(uint64(len(coreFacts) + len(coverFacts)))

	idx := make(map[*btp.Program]int, len(programs))
	for i, p := range programs {
		idx[p] = i
	}
	seed := func(facts [][]*btp.Program, add func(int, []uint64) bool) {
		for fi, fact := range facts {
			mask := make([]uint64, words)
			ok := true
			for _, p := range fact {
				i, present := idx[p]
				if !present {
					ok = false
					break
				}
				orInto(mask, programMask[i])
			}
			if ok {
				add(fi, mask)
			}
		}
	}
	seed(coreFacts, func(fi int, mask []uint64) bool {
		if coreCerts[fi] {
			// A certified fact re-delivered by the delta feed (e.g. after
			// CertifyCore re-stamped it) upgrades the provenance bit of a
			// mask the entry already holds.
			return e.cores.AddCertified(mask)
		}
		return e.cores.Add(mask)
	})
	seed(coverFacts, func(_ int, mask []uint64) bool { return e.covers.Add(mask) })

	s.mu.Lock()
	e.gen = gen
	// The retired check happens under the admitting lock: a program
	// invalidated while we were seeding must not be memoized under a key
	// no future request can reach (the entry would leak for the session's
	// lifetime).
	admit := true
	for _, p := range programs {
		if s.retired[p] {
			admit = false
			break
		}
	}
	if admit {
		if len(s.lattices) >= selectionCacheMax {
			clear(s.lattices) // see selectionCacheMax
		}
		s.lattices[key] = e
	}
	s.mu.Unlock()
	return e
}

// selectionCacheMax bounds the per-selection memo maps (lattices,
// universes): a workload of n programs admits up to 2^n distinct ordered
// selections, and a long-lived server must not grow a session map per
// request shape. The
// maps are pure accelerators — dropping them costs one re-seed / one warm
// compose scan, never a verdict — so overflow handling is the simplest
// correct thing: clear and let the hot selections repopulate. The durable
// knowledge (core and cover facts, edge blocks) lives in the bounded
// stores, not here.
const selectionCacheMax = 256

// mergeLattice folds an enumeration's discoveries back into the fact
// store: cores dedup-insert (minimal facts are pairwise incomparable),
// covers insert with maximal-antichain maintenance. Facts touching a
// program invalidated mid-enumeration are dropped. Insertions bump the
// store generation so other selections' cached entries re-seed; the
// entry's own generation advances only when no foreign merge interleaved,
// otherwise it stays behind and the next use re-seeds.
func (s *Session) mergeLattice(cfg Config, e *latticeEntry, programs []*btp.Program, programMask [][]uint64) {
	ck := coreKey{setting: cfg.Setting, method: cfg.Method, bound: cfg.bound()}
	toFact := func(m []uint64) []*btp.Program {
		var set []*btp.Program
		for i, pm := range programMask {
			if intersects(pm, m) {
				set = append(set, programs[i])
			}
		}
		return set
	}
	coreMasks, coreCerts := e.cores.MasksCertified()
	coreFacts := make([][]*btp.Program, 0, len(coreMasks))
	coreFactCerts := make([]bool, 0, len(coreMasks))
	for mi, m := range coreMasks {
		if set := toFact(m); len(set) > 0 {
			coreFacts = append(coreFacts, set)
			coreFactCerts = append(coreFactCerts, coreCerts[mi])
		}
	}
	coverFacts := make([][]*btp.Program, 0, 8)
	for _, m := range e.covers.Masks() {
		if set := toFact(m); len(set) > 0 {
			coverFacts = append(coverFacts, set)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	retired := func(fact []*btp.Program) bool {
		for _, p := range fact {
			if s.retired[p] {
				return true
			}
		}
		return false
	}
	// New facts are stamped with the post-bump generation, so delta feeds
	// synced at the pre-bump generation pick exactly this merge's additions.
	newGen := s.coreGen[ck] + 1
	changed := false

	cl := s.cores[ck]
	if cl == nil {
		cl = &factLog{}
		s.cores[ck] = cl
	}
	have := make(map[string]int, len(cl.facts))
	for i, c := range cl.facts {
		have[coreID(c)] = i
	}
	// Certification upgrades re-stamp an existing uncertified fact: the old
	// log entry is dropped via a fresh log (published prefixes are never
	// mutated) and the fact re-appends below with the certified bit at the
	// new generation, so delta-feed readers pick the upgrade up.
	drop := map[int]bool{}
	for fi, f := range coreFacts {
		if !coreFactCerts[fi] || retired(f) {
			continue
		}
		if i, ok := have[coreID(f)]; ok && !cl.certs[i] {
			drop[i] = true
		}
	}
	if len(drop) > 0 {
		fresh := &factLog{
			facts: make([][]*btp.Program, 0, len(cl.facts)),
			gens:  make([]uint64, 0, len(cl.gens)),
			certs: make([]bool, 0, len(cl.certs)),
		}
		for i := range cl.facts {
			if !drop[i] {
				fresh.append(cl.facts[i], cl.gens[i], cl.certs[i])
			}
		}
		s.cores[ck] = fresh
		cl = fresh
		have = make(map[string]int, len(cl.facts))
		for i, c := range cl.facts {
			have[coreID(c)] = i
		}
	}
	for fi, f := range coreFacts {
		if retired(f) {
			continue
		}
		id := coreID(f)
		if _, ok := have[id]; ok {
			continue
		}
		cl.append(f, newGen, coreFactCerts[fi])
		have[id] = len(cl.facts) - 1
		changed = true
	}

	cov := s.covers[ck]
	if cov == nil {
		cov = &factLog{}
		s.covers[ck] = cov
	}
	for _, f := range coverFacts {
		if retired(f) {
			continue
		}
		dominated := false
		keptFacts := cov.facts[:0:0]
		keptGens := cov.gens[:0:0]
		keptCerts := cov.certs[:0:0]
		for i, c := range cov.facts {
			if programSubset(f, c) {
				dominated = true
				break
			}
			if !programSubset(c, f) {
				keptFacts = append(keptFacts, c)
				keptGens = append(keptGens, cov.gens[i])
				keptCerts = append(keptCerts, cov.certs[i])
			}
		}
		if dominated {
			continue
		}
		cov.facts, cov.gens, cov.certs = keptFacts, keptGens, keptCerts
		cov.append(f, newGen, false)
		changed = true
	}

	wasGen := e.gen
	if changed {
		s.coreGen[ck] = newGen
	}
	cur := s.coreGen[ck]
	expect := wasGen
	if changed {
		expect++
	}
	if cur == expect {
		e.gen = cur
	}
}

// programSubset reports whether every program of a appears in b (small
// sets: nested scan beats map allocation).
func programSubset(a, b []*btp.Program) bool {
	for _, p := range a {
		found := false
		for _, q := range b {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

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
// name). ExportCovers is the robust-side dual.
func (s *Session) ExportCores() []CoreFact {
	return s.exportFacts(func(s *Session) map[coreKey]*factLog { return s.cores })
}

// ExportCovers snapshots every robust-cover fact: program sets known
// jointly robust (an antichain of the largest ones seen). Like cores they
// are content-intrinsic, so the server persists and re-seeds them the same
// way.
func (s *Session) ExportCovers() []CoreFact {
	return s.exportFacts(func(s *Session) map[coreKey]*factLog { return s.covers })
}

func (s *Session) exportFacts(store func(*Session) map[coreKey]*factLog) []CoreFact {
	s.mu.Lock()
	m := store(s)
	facts := make([]CoreFact, 0, 16)
	for k, log := range m {
		for i, core := range log.facts {
			ps := make([]*btp.Program, len(core))
			copy(ps, core)
			facts = append(facts, CoreFact{Setting: k.setting, Method: k.method, Bound: k.bound, Programs: ps, Certified: log.certs[i]})
		}
	}
	s.mu.Unlock()
	// Precompute each fact's tiebreak key once — coreID allocates, and a
	// comparator would re-derive both sides on every comparison of the
	// flush-path sort.
	ids := make([]string, len(facts))
	for i, f := range facts {
		sort.Slice(f.Programs, func(a, b int) bool { return f.Programs[a].ShortName() < f.Programs[b].ShortName() })
		ids[i] = coreID(f.Programs)
	}
	sort.Sort(&factSorter{facts: facts, ids: ids})
	return facts
}

// factSorter orders exported facts deterministically: setting, method,
// bound, then the precomputed pointer-set key.
type factSorter struct {
	facts []CoreFact
	ids   []string
}

func (s *factSorter) Len() int { return len(s.facts) }
func (s *factSorter) Swap(i, j int) {
	s.facts[i], s.facts[j] = s.facts[j], s.facts[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}
func (s *factSorter) Less(i, j int) bool {
	a, b := s.facts[i], s.facts[j]
	if a.Setting != b.Setting {
		return a.Setting.String() < b.Setting.String()
	}
	if a.Method != b.Method {
		return a.Method < b.Method
	}
	if a.Bound != b.Bound {
		return a.Bound < b.Bound
	}
	return s.ids[i] < s.ids[j]
}

// ImportCores seeds the session with core facts (deduplicated; facts whose
// programs have been invalidated are skipped). The facts are trusted — the
// server only imports from snapshots whose content fingerprint verified —
// and used purely for pruning, so an absent fact costs a detector run, a
// correct one saves it.
func (s *Session) ImportCores(facts []CoreFact) int {
	return s.importFacts(facts, func(s *Session) map[coreKey]*factLog { return s.cores })
}

// ImportCovers seeds the session with robust-cover facts; the dual of
// ImportCores.
func (s *Session) ImportCovers(facts []CoreFact) int {
	return s.importFacts(facts, func(s *Session) map[coreKey]*factLog { return s.covers })
}

// CertifyCore marks the program set as a *certified* non-robust core under
// the configuration: its non-robustness has been witnessed by a concrete
// replayed non-serializable execution (internal/certify), not only by the
// static cycle condition. The fact is inserted if the store does not hold
// it yet (a certificate is also a proof of non-robustness) and its
// certification bit is set either way; the store generation bumps so
// cached lattice entries and subsequent subset reports pick the provenance
// up through the delta feed. Returns true when the store changed (the core
// was new or newly certified); false for an already-certified core or a
// retired program.
func (s *Session) CertifyCore(cfg Config, core []*btp.Program) bool {
	if len(core) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range core {
		if s.retired[p] {
			return false
		}
	}
	k := coreKey{setting: cfg.Setting, method: cfg.Method, bound: cfg.bound()}
	log := s.cores[k]
	if log == nil {
		log = &factLog{}
		s.cores[k] = log
	}
	id := coreID(core)
	for i, c := range log.facts {
		if coreID(c) != id {
			continue
		}
		if log.certs[i] {
			return false
		}
		fresh := restampCertified(log, i)
		s.coreGen[k]++
		fresh.gens[len(fresh.gens)-1] = s.coreGen[k]
		s.cores[k] = fresh
		return true
	}
	ps := make([]*btp.Program, len(core))
	copy(ps, core)
	s.coreGen[k]++
	log.append(ps, s.coreGen[k], true)
	return true
}

func (s *Session) importFacts(facts []CoreFact, store func(*Session) map[coreKey]*factLog) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := store(s)
	added := 0
	for _, f := range facts {
		if len(f.Programs) == 0 {
			continue
		}
		bound := f.Bound
		if bound <= 0 {
			bound = btp.DefaultUnfoldBound
		}
		retired := false
		for _, p := range f.Programs {
			if s.retired[p] {
				retired = true
				break
			}
		}
		if retired {
			continue
		}
		k := coreKey{setting: f.Setting, method: f.Method, bound: bound}
		id := coreID(f.Programs)
		log := m[k]
		if log == nil {
			log = &factLog{}
			m[k] = log
		}
		dup := -1
		for i, c := range log.facts {
			if coreID(c) == id {
				dup = i
				break
			}
		}
		if dup >= 0 {
			if f.Certified && !log.certs[dup] {
				// Certification upgrade of a known fact: re-stamp it via the
				// fresh-log protocol so delta feeds deliver the new bit.
				m[k] = restampCertified(log, dup)
				s.coreGen[k]++
				m[k].gens[len(m[k].gens)-1] = s.coreGen[k]
				added++
			}
			continue
		}
		ps := make([]*btp.Program, len(f.Programs))
		copy(ps, f.Programs)
		s.coreGen[k]++ // cached lattice entries must consume the delta
		log.append(ps, s.coreGen[k], f.Certified)
		added++
	}
	return added
}

// restampCertified builds a fresh fact log equal to log minus entry i, with
// that entry re-appended carrying the certified bit (its generation is the
// caller's to stamp — it sits at the end). Fresh-log, not in-place: delta
// readers may hold suffix views of the old slices outside the lock.
func restampCertified(log *factLog, i int) *factLog {
	fresh := &factLog{
		facts: make([][]*btp.Program, 0, len(log.facts)),
		gens:  make([]uint64, 0, len(log.gens)),
		certs: make([]bool, 0, len(log.certs)),
	}
	for j := range log.facts {
		if j != i {
			fresh.append(log.facts[j], log.gens[j], log.certs[j])
		}
	}
	fresh.append(log.facts[i], log.gens[i], true)
	return fresh
}

// universeGraph returns the memoized universe graph for the exact program
// selection, composing (and caching) it on first use; the collecting walk
// decides every subset on it with Graph.RobustWitness. Verdicts never
// depend on cache contents, so a straggler using a just-invalidated graph
// is correct, merely cold next time.
func (s *Session) universeGraph(ctx context.Context, cfg Config, progs string, programs []*btp.Program, all []*btp.LTP) (*summary.Graph, error) {
	key := universeKey{setting: cfg.Setting, bound: cfg.bound(), progs: progs}
	s.mu.Lock()
	if e, ok := s.universes[key]; ok {
		s.mu.Unlock()
		return e.g, nil
	}
	s.mu.Unlock()
	g, err := summary.ComposeCtx(ctx, s.Blocks(cfg.Setting), all, 0)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	admit := true
	for _, p := range programs {
		if s.retired[p] {
			admit = false
			break
		}
	}
	if admit {
		if len(s.universes) >= selectionCacheMax {
			clear(s.universes) // see selectionCacheMax
		}
		s.universes[key] = &universeEntry{g: g, programs: append([]*btp.Program(nil), programs...)}
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
	idx := 0
	for i, g := range groups {
		m := make([]uint64, words)
		for range g {
			m[idx/64] |= 1 << (uint(idx) % 64)
			idx++
		}
		out[i] = m
	}
	return out
}
