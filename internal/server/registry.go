package server

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/btp"
	"repro/internal/relschema"
	"repro/internal/snapshot"
	"repro/internal/sqlbtp"
	"repro/internal/wire"
)

// workload is one registered schema + program set, wrapping the long-lived
// analysis.Session that amortizes unfoldings and pairwise edge blocks
// across every request it serves.
type workload struct {
	// id is the registration fingerprint; stable for the workload's
	// lifetime, including across PATCHes.
	id     string
	schema *relschema.Schema
	sess   *analysis.Session

	// mu guards the program table and version. Checks take the read lock
	// only long enough to snapshot the programs they analyse; a PATCH
	// holds the write lock across parse + invalidate + swap so every
	// snapshot sees a consistent (programs, version) pair.
	mu       sync.RWMutex
	names    []string                // full program names, registration order
	programs map[string]*btp.Program // by full name AND abbreviation
	version  uint64

	checks, subsets, patches atomic.Uint64

	// pins counts requests currently being served against this workload
	// (held from lookup to response, and across register + persist). A
	// pinned workload is never an eviction victim: evicting mid-request
	// would drop a session and result cache the request is about to
	// populate — and let a post-request persist resurrect a snapshot an
	// eviction just deleted.
	pins atomic.Int64

	// persistMu serializes snapshot writes of this workload: reading the
	// state (snapshotFile) and renaming the file into place must be atomic
	// against each other, or a slow persist holding pre-PATCH state could
	// overwrite the PATCH's own newer snapshot.
	persistMu sync.Mutex

	// results is the subsets result cache (see resultcache.go).
	results *resultCache
}

// newWorkload builds a workload over the schema and programs (validated by
// the caller) with its fingerprint id.
func newWorkload(schema *relschema.Schema, programs []*btp.Program) *workload {
	w := &workload{
		id:      fingerprint(schema, programs),
		schema:  schema,
		sess:    analysis.NewSession(schema),
		results: newResultCache(),
	}
	w.installPrograms(programs)
	return w
}

// fingerprint is snapshot.Fingerprint: the schema and full program
// definitions hashed so two workloads collide only when they are
// semantically identical to the analysis.
func fingerprint(schema *relschema.Schema, programs []*btp.Program) string {
	return snapshot.Fingerprint(schema, programs)
}

// session returns the workload's current analysis engine. Callers may keep
// using a session across a concurrent rotation — verdicts never depend on
// cache contents — it is merely garbage afterwards.
func (w *workload) session() *analysis.Session {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.sess
}

// resetIfDrifted restores the workload to the given registered content if
// PATCHes have made its current programs diverge from the registration
// fingerprint (the workload id). Without this, re-registering pristine
// content would silently alias onto a drifted workload and answer with the
// wrong programs. Returns true when a reset happened (version bumped).
func (w *workload) resetIfDrifted(programs []*btp.Program) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	current := make([]*btp.Program, len(w.names))
	for i, n := range w.names {
		current[i] = w.programs[n]
	}
	if fingerprint(w.schema, current) == w.id {
		return false
	}
	// Drop a whole session rather than invalidating program by program:
	// resets are rare (they require an interleaved PATCH) and this also
	// sheds any memory pinned by the patch history.
	w.sess = analysis.NewSession(w.schema)
	w.installPrograms(programs)
	w.version++
	return true
}

// installPrograms replaces the program table. Caller holds w.mu.
func (w *workload) installPrograms(programs []*btp.Program) {
	w.names = w.names[:0]
	w.programs = make(map[string]*btp.Program, 2*len(programs))
	for _, p := range programs {
		w.names = append(w.names, p.Name)
		w.programs[p.Name] = p
		if p.Abbrev != "" {
			w.programs[p.Abbrev] = p
		}
	}
}

// programList returns the full program set in registration order plus the
// current version.
func (w *workload) programList() ([]*btp.Program, uint64) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]*btp.Program, len(w.names))
	for i, n := range w.names {
		out[i] = w.programs[n]
	}
	return out, w.version
}

// snapshot resolves the requested program names (full names or
// abbreviations; empty means all) against the current version.
func (w *workload) snapshot(names []string) ([]*btp.Program, uint64, error) {
	if len(names) == 0 {
		ps, v := w.programList()
		return ps, v, nil
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]*btp.Program, len(names))
	seen := make(map[*btp.Program]bool, len(names))
	for i, n := range names {
		p, ok := w.programs[n]
		if !ok {
			return nil, 0, fmt.Errorf("workload has no program %q", n)
		}
		// A full name and its abbreviation resolve to the same program;
		// admitting the duplicate would enumerate it as two distinct
		// nodes and produce a malformed graph.
		if seen[p] {
			return nil, 0, fmt.Errorf("program %q selected twice", n)
		}
		seen[p] = true
		out[i] = p
	}
	return out, w.version, nil
}

// patch replaces the named program with a new definition parsed from SQL,
// invalidating only the old program's memoized unfoldings and pairwise
// edge blocks (the incremental re-analysis path). It returns the replaced
// program's full name, the number of evicted pairs and the new version.
func (w *workload) patch(name, sql string) (string, int, uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	old, ok := w.programs[name]
	if !ok {
		return "", 0, 0, fmt.Errorf("workload has no program %q", name)
	}
	next, err := sqlbtp.ParseProgram(w.schema, sql)
	if err != nil {
		return "", 0, 0, fmt.Errorf("parse: %w", err)
	}
	if next.Name != old.Name {
		return "", 0, 0, fmt.Errorf("PROGRAM name %q does not match patched program %q", next.Name, old.Name)
	}
	if err := next.Validate(w.schema); err != nil {
		return "", 0, 0, err
	}
	// SQL-parsed programs carry no abbreviation; inherit the old one so
	// subset reports keep their short names across patches.
	if next.Abbrev == "" {
		next.Abbrev = old.Abbrev
	}
	invalidated := w.sess.Invalidate(old)
	delete(w.programs, old.Name)
	if old.Abbrev != "" {
		delete(w.programs, old.Abbrev)
	}
	w.programs[next.Name] = next
	if next.Abbrev != "" {
		w.programs[next.Abbrev] = next
	}
	w.version++
	// Every invalidation retires the old program's LTPs in the session's
	// caches (they must not be re-admitted by in-flight stragglers), so a
	// heavily patched workload accrues a little stale bookkeeping per
	// patch. Rotating to a fresh session every sessionRotatePatches
	// versions bounds that at the cost of one periodic cold rebuild.
	if w.version%sessionRotatePatches == 0 {
		w.sess = analysis.NewSession(w.schema)
	}
	return old.Name, invalidated, w.version, nil
}

// sessionRotatePatches is the version period after which a workload swaps
// in a fresh analysis session to shed memory pinned by patch history.
const sessionRotatePatches = 64

// workloadBaseBytes and stmtBytes are the rough fixed costs of the size
// estimate: per-workload bookkeeping and per-statement structures.
const (
	workloadBaseBytes = 1024
	stmtBytes         = 192
)

// sizeBytes estimates the workload's resident memory: program definitions,
// the session's memoized unfoldings and pairwise edge blocks, and the
// subsets result cache. It is the quantity the -max-bytes eviction policy
// weighs — a relative estimate recomputed on demand (caches grow as
// requests warm them), not an exact accounting.
func (w *workload) sizeBytes() int64 {
	w.mu.RLock()
	n := int64(workloadBaseBytes)
	for _, name := range w.names {
		p := w.programs[name]
		n += int64(len(p.Name) + len(p.Abbrev))
		n += int64(len(p.Statements())) * stmtBytes
	}
	sess := w.sess
	w.mu.RUnlock()
	return n + sess.SizeBytes() + w.results.sizeBytes()
}

// pinned reports whether a request is currently being served against the
// workload.
func (w *workload) pinned() bool { return w.pins.Load() > 0 }

// snapshotFile assembles the workload's persistent snapshot: schema,
// program definitions, version, content fingerprint, the result-cache
// entries and the minimal non-robust cores. A PATCH racing this may leave
// a result entry from a newer version in the file; restore filters entries
// by the file's version, so the worst case is a dropped cache entry, never
// a wrong answer. Cores self-consist by pointer identity: the session
// drops a patched program's cores before the patch publishes, so every
// exported core resolves against the program set read here — a core whose
// pointer no longer appears in the table is skipped.
func (w *workload) snapshotFile() (*snapshot.File, error) {
	programs, version := w.programList()
	f := &snapshot.File{
		ID:      w.id,
		Version: version,
		Content: fingerprint(w.schema, programs),
		Schema:  snapshot.FromSchema(w.schema),
	}
	for _, p := range programs {
		sp, err := snapshot.FromProgram(p)
		if err != nil {
			return nil, err
		}
		f.Programs = append(f.Programs, sp)
	}
	f.Results = w.results.export()
	sess := w.session()
	f.Cores = exportCoreGroups(sess.ExportCores(), programs)
	f.Covers = exportCoreGroups(sess.ExportCovers(), programs)
	return f, nil
}

// exportCoreGroups renders core (or cover) facts as name-based snapshot
// groups, one per (setting, method, bound), keeping only facts whose
// programs all belong to the given program set.
func exportCoreGroups(facts []analysis.CoreFact, programs []*btp.Program) []snapshot.CoreGroup {
	names := make(map[*btp.Program]string, len(programs))
	for _, p := range programs {
		names[p] = p.Name
	}
	var groups []snapshot.CoreGroup
	idx := make(map[string]int)
	for _, fact := range facts {
		core := make([]string, 0, len(fact.Programs))
		ok := true
		for _, p := range fact.Programs {
			name, present := names[p]
			if !present {
				ok = false
				break
			}
			core = append(core, name)
		}
		if !ok {
			continue
		}
		sort.Strings(core)
		key := fmt.Sprintf("%s|%s|%d", wire.SettingName(fact.Setting), wire.MethodName(fact.Method), fact.Bound)
		gi, seen := idx[key]
		if !seen {
			gi = len(groups)
			idx[key] = gi
			groups = append(groups, snapshot.CoreGroup{
				Setting: wire.SettingName(fact.Setting),
				Method:  wire.MethodName(fact.Method),
				Bound:   fact.Bound,
			})
		}
		groups[gi].Cores = append(groups[gi].Cores, core)
		groups[gi].Certified = append(groups[gi].Certified, fact.Certified)
	}
	// Groups with no certified core drop the column entirely, keeping
	// pre-certification snapshot bytes (and the cover groups) unchanged.
	for gi := range groups {
		any := false
		for _, c := range groups[gi].Certified {
			if c {
				any = true
				break
			}
		}
		if !any {
			groups[gi].Certified = nil
		}
	}
	return groups
}

// importCoreGroups resolves snapshot core/cover groups against the rebuilt
// program table and hands them to seed (Session.ImportCores or
// ImportCovers); entries naming unknown programs or unknown configurations
// are dropped.
func importCoreGroups(programs []*btp.Program, groups []snapshot.CoreGroup, seed func([]analysis.CoreFact) int) int {
	byName := make(map[string]*btp.Program, len(programs))
	for _, p := range programs {
		byName[p.Name] = p
	}
	var facts []analysis.CoreFact
	for _, g := range groups {
		setting, err := wire.ParseSetting(g.Setting)
		if err != nil {
			continue
		}
		method, err := wire.ParseMethod(g.Method)
		if err != nil {
			continue
		}
		for ci, core := range g.Cores {
			ps := make([]*btp.Program, 0, len(core))
			ok := len(core) > 0
			for _, name := range core {
				p, present := byName[name]
				if !present {
					ok = false
					break
				}
				ps = append(ps, p)
			}
			if ok {
				facts = append(facts, analysis.CoreFact{
					Setting: setting, Method: method, Bound: g.Bound, Programs: ps,
					Certified: ci < len(g.Certified) && g.Certified[ci],
				})
			}
		}
	}
	return seed(facts)
}

// registry is the concurrency-safe workload table: fingerprint-keyed with
// an LRU cap, so a long-lived server bounds the memory of its cached
// sessions while hot workloads stay resident. When a -max-bytes budget is
// set, a second, memory-aware policy kicks in: per-workload size estimates
// (sizeBytes) are summed after every request, and size-weighted LRU
// eviction sheds workloads until the total fits — one bloated session goes
// before several small hot ones would.
type registry struct {
	cap      int
	maxBytes int64
	// onEvict, when non-nil, runs for every evicted workload *after* the
	// registry lock is released (it does disk I/O — the server uses it to
	// delete the workload's snapshot — and must not stall lookups). It may
	// therefore observe the id already re-registered; see Server.New's
	// callback for how that race is closed.
	onEvict func(*workload)

	mu             sync.Mutex
	items          map[string]*list.Element // id → element holding *workload
	order          *list.List               // front = most recently used
	evictions      atomic.Uint64
	evictionsBytes atomic.Uint64
}

func newRegistry(capacity int, maxBytes int64) *registry {
	return &registry{
		cap:      capacity,
		maxBytes: maxBytes,
		items:    make(map[string]*list.Element),
		order:    list.New(),
	}
}

// removeLocked detaches the element's workload and returns it. Caller
// holds r.mu and must pass the workload to notifyEvicted *after* releasing
// the lock — the eviction callback does disk I/O (snapshot deletion) that
// must not stall every lookup on the registry mutex.
func (r *registry) removeLocked(el *list.Element) *workload {
	w := el.Value.(*workload)
	r.order.Remove(el)
	delete(r.items, w.id)
	return w
}

// notifyEvicted runs the eviction callback for each workload. Caller must
// not hold r.mu.
func (r *registry) notifyEvicted(ws []*workload) {
	if r.onEvict == nil {
		return
	}
	for _, w := range ws {
		r.onEvict(w)
	}
}

// register inserts the workload, or returns the resident one with the same
// fingerprint (registration is idempotent). The entry becomes most
// recently used and is returned *pinned* — the caller must unpin once its
// post-registration work (drift reset, persist) is done, so no eviction
// can interleave and have its snapshot deletion overwritten. Beyond the
// cap the least recently used unpinned entry is evicted — a workload with
// a request in flight survives even at the cap.
func (r *registry) register(w *workload) (*workload, bool) {
	var evicted []*workload
	r.mu.Lock()
	if el, ok := r.items[w.id]; ok {
		r.order.MoveToFront(el)
		res := el.Value.(*workload)
		res.pins.Add(1)
		r.mu.Unlock()
		return res, false
	}
	r.items[w.id] = r.order.PushFront(w)
	w.pins.Add(1)
	for r.order.Len() > r.cap {
		victim := r.order.Back()
		for victim != nil && victim.Value.(*workload).pinned() {
			victim = victim.Prev()
		}
		if victim == nil || victim == r.order.Front() {
			break
		}
		evicted = append(evicted, r.removeLocked(victim))
		r.evictions.Add(1)
	}
	r.mu.Unlock()
	r.notifyEvicted(evicted)
	return w, true
}

// enforceBytes evicts workloads until the estimated resident total fits the
// -max-bytes budget. The victim each round maximizes size × staleness
// (recency rank from the front), so the policy degrades to plain LRU when
// sizes are uniform but preferentially sheds one oversized session
// otherwise. Pinned workloads and the most recently used one (the workload
// serving the request that triggered enforcement) are never victims; if
// only those remain, the budget is allowed to overshoot rather than
// thrashing the working set.
//
// The size walk — every workload's caches — runs on an unlocked snapshot of
// the registry order, so concurrent lookups never queue behind it; only the
// final eviction takes the lock, re-verifying that the chosen victim is
// still resident, still unpinned and still not most recently used.
func (r *registry) enforceBytes() {
	if r.maxBytes <= 0 {
		return
	}
	for {
		workloads := r.all() // most recently used first
		var (
			total     int64
			victim    *workload
			bestScore int64
		)
		for rank, w := range workloads {
			size := w.sizeBytes()
			total += size
			if rank > 0 && !w.pinned() {
				if score := size * int64(rank+1); score > bestScore {
					bestScore, victim = score, w
				}
			}
		}
		if total <= r.maxBytes || victim == nil {
			return
		}
		if !r.evictForBytes(victim) {
			return
		}
	}
}

// evictForBytes evicts the chosen victim if it still qualifies under the
// lock (resident, unpinned, not most recently used); a false return stops
// the enforcement round rather than re-scoring forever against racing
// traffic.
func (r *registry) evictForBytes(w *workload) bool {
	r.mu.Lock()
	el, ok := r.items[w.id]
	if !ok || el.Value.(*workload) != w || w.pinned() || el == r.order.Front() {
		r.mu.Unlock()
		return false
	}
	r.removeLocked(el)
	r.evictionsBytes.Add(1)
	r.mu.Unlock()
	r.notifyEvicted([]*workload{w})
	return true
}

// peek returns the resident workload without bumping recency — eviction
// bookkeeping must not refresh the entry it inspects.
func (r *registry) peek(id string) *workload {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.items[id]; ok {
		return el.Value.(*workload)
	}
	return nil
}

// get returns the workload and bumps it to most recently used, or nil.
func (r *registry) get(id string) *workload {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.items[id]
	if !ok {
		return nil
	}
	r.order.MoveToFront(el)
	return el.Value.(*workload)
}

// pin pins the resident workload *without* bumping its recency — the
// background snapshot flusher must not refresh the LRU position of every
// workload it writes. Like getPinned, the pin is taken under the registry
// lock, so it is mutually exclusive with eviction's pinned() checks.
// Returns nil when the id is no longer resident. Callers unpin with
// pins.Add(-1).
func (r *registry) pin(id string) *workload {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.items[id]
	if !ok {
		return nil
	}
	w := el.Value.(*workload)
	w.pins.Add(1)
	return w
}

// getPinned is get plus a pin taken under the registry lock, so there is
// no window in which an eviction can observe the workload unpinned after a
// request has resolved it (a pin taken outside the lock would let the
// request serve — and persist — an already-evicted workload).
func (r *registry) getPinned(id string) *workload {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.items[id]
	if !ok {
		return nil
	}
	r.order.MoveToFront(el)
	w := el.Value.(*workload)
	w.pins.Add(1)
	return w
}

// all snapshots the resident workloads, most recently used first.
func (r *registry) all() []*workload {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*workload, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*workload))
	}
	return out
}

func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order.Len()
}
