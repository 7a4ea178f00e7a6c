// Package server is the robustness-as-a-service subsystem: a long-lived
// HTTP server that registers workloads (schema + transaction programs)
// once and answers robustness queries many times, amortizing the expensive
// analysis artifacts — validated and unfolded programs, and the per-setting
// pairwise edge-block caches of Algorithm 1 — across requests.
//
// Each registered workload wraps one analysis.Session in a fingerprint-
// keyed registry with an LRU cap. PATCHing a single program performs
// incremental re-analysis: only the changed program's ordered LTP pairs
// are evicted from the block caches, so the next check recomputes those
// pairs alone. Identical in-flight subset enumerations are coalesced, and
// every analysis runs under the request context, so client disconnects and
// server timeouts abort work mid-flight.
//
// Three hardening layers make the service restartable and memory-governed
// (see the "Persistence & result cache" section of docs/ARCHITECTURE.md):
// a per-workload subsets result cache keyed by (version, configuration,
// program selection) answers repeated enumerations from stored bytes and is
// invalidated exactly by PATCH version bumps; Options.StateDir persists
// each workload (programs, version, result cache) as a JSON snapshot via
// internal/snapshot and reloads it on boot, so a restart preserves wire
// behavior byte for byte; and Options.MaxBytes replaces blind LRU with
// size-weighted eviction over per-workload memory estimates, never evicting
// a workload with a request in flight.
//
// Concurrency is governed by the engine's one Parallelism knob (see
// docs/ARCHITECTURE.md): the -parallel option is the per-request default
// and cap, requests may lower or (up to the cap) raise it via the
// "parallelism" body field, and /v1/stats reports the resolved default
// plus each workload's last effective value. The knob bounds the
// subset-enumeration fanout (Figures 6/7 of the paper); a single check
// runs on its request's goroutine.
//
// API (JSON over HTTP; see internal/wire for the body types):
//
//	POST  /v1/workloads                             register (idempotent)
//	GET   /v1/workloads/{id}                        workload info + cache stats
//	POST  /v1/workloads/{id}/check                  robustness verdict
//	POST  /v1/workloads/{id}/subsets                robust / maximal subsets
//	GET   /v1/workloads/{id}/subsets:stream         NDJSON verdict stream
//	POST  /v1/workloads/{id}/subsets:stream         same, options in the body
//	POST  /v1/workloads/{id}/certify                certified counterexample
//	PATCH /v1/workloads/{id}/programs/{name}        replace one program
//	GET   /v1/stats                                 server + cache telemetry
//	GET   /healthz                                  liveness
//
// The subsets:stream routes (see stream.go) serve the same enumeration as
// /subsets but emit each subset verdict as one NDJSON line the moment the
// lattice walk decides it, with optional early termination (mode=
// first_non_robust | all_maximal_robust | top_k, max_subsets=N); the final
// line is a summary record carrying subsets_pruned and core telemetry.
// Completed mode=all streams feed the /subsets result cache; streams
// themselves always run the engine (verdict timing is the product).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/relschema"
	"repro/internal/snapshot"
	"repro/internal/sqlbtp"
	"repro/internal/wire"
)

// Options configures a Server.
type Options struct {
	// MaxWorkloads caps the registry; the least recently used workload is
	// evicted beyond it. 0 means DefaultMaxWorkloads.
	MaxWorkloads int
	// Parallelism bounds each subset enumeration's worker pool; 0 means
	// GOMAXPROCS, 1 forces sequential enumeration.
	Parallelism int
	// RequestTimeout bounds each analysis request; 0 means
	// DefaultRequestTimeout, negative means no deadline beyond the
	// client's own. Every request therefore runs under a deadline unless
	// the operator explicitly opts out — a stuck analysis must not hold
	// its admission slot forever.
	RequestTimeout time.Duration
	// MaxConcurrentChecks caps the analysis requests (check, subsets,
	// subsets:stream, certify) executing at once. Beyond the cap,
	// requests are shed immediately with 429, a Retry-After header and a
	// structured {code: "overloaded"} body — bounded latency for admitted
	// work beats an unbounded queue that times everyone out together.
	// Control-plane routes (register, patch, stats, health, metrics) are
	// never shed. 0 means unlimited.
	MaxConcurrentChecks int
	// SnapshotFS, when non-nil, is the filesystem the snapshot store
	// writes through — the deterministic fault-injection seam of the
	// crash-safety and chaos tests (internal/faultfs). nil means the real
	// filesystem.
	SnapshotFS faultfs.FS
	// StateDir, when non-empty, makes the server persist every registered
	// workload (schema, programs, version, subsets result cache) as a JSON
	// snapshot under this directory and reload the snapshots on boot, so a
	// restarted server answers with byte-identical wire responses without
	// re-running the analysis for cached enumerations. Corrupt or partial
	// snapshot files are skipped, never fatal (StateReport tells how many).
	StateDir string
	// MaxBytes, when positive, is the estimated-memory budget across all
	// resident workloads: after every request, size-weighted LRU eviction
	// sheds workloads until the estimates fit. It replaces blind LRU as the
	// memory governor — the count cap still applies as a backstop. 0 means
	// no byte budget.
	MaxBytes int64
	// FlushInterval debounces the result-cache snapshot writes: a newly
	// cached enumeration marks its workload dirty instead of rewriting the
	// whole snapshot file in-line, and a background flusher persists every
	// dirty workload once per interval — a burst of enumerations costs one
	// rewrite, not one per request. Registration and PATCH still persist
	// synchronously (rare control-plane writes whose durability the
	// restart path depends on), and Close performs a final flush. 0 means
	// DefaultFlushInterval.
	FlushInterval time.Duration
	// Logger, when non-nil, receives one structured access-log record per
	// request (method, path, endpoint, status, duration, request_id) at
	// info level and per-phase span records at debug level. nil disables
	// logging entirely — metrics and tracing still run.
	Logger *slog.Logger
}

// DefaultMaxWorkloads is the default registry cap.
const DefaultMaxWorkloads = 64

// DefaultFlushInterval is the default debounce window for result-cache
// snapshot writes: short enough that a crash loses at most a heartbeat of
// cached enumerations (losing one costs a recompute, never correctness),
// long enough that a burst coalesces into one file rewrite.
const DefaultFlushInterval = 100 * time.Millisecond

// DefaultRequestTimeout is the analysis deadline applied when Options.
// RequestTimeout is zero: generous enough for the large-benchmark subset
// sweeps, small enough that a pathological request cannot pin an
// admission slot indefinitely.
const DefaultRequestTimeout = 30 * time.Second

// Flusher failure handling: a failed flush round doubles the next round's
// delay (plus jitter) up to maxFlushBackoff — hammering a full disk every
// 100ms helps nobody — and degradedAfterRounds consecutive failures flip
// the server into degraded-persistence mode (visible in /healthz and
// mvrc_snapshot_degraded, and 503 on /healthz/ready). Dirty workloads
// stay dirty across failures, so no write is ever silently dropped.
const (
	maxFlushBackoff     = 5 * time.Second
	degradedAfterRounds = 3
)

// Close retries the final flush a few times with short fixed backoff
// before giving up and reporting the loss — shutdown must terminate even
// with a dead disk.
const (
	closeFlushAttempts = 3
	closeFlushBackoff  = 25 * time.Millisecond
)

// shedRetryAfterSeconds is the Retry-After hint on 429 responses; load
// sheds on the timescale of in-flight analyses completing, not instantly.
const shedRetryAfterSeconds = 1

// Server is the resident robustness service. Create with New, expose with
// Handler, release background state with Close.
type Server struct {
	opts  Options
	reg   *registry
	mux   *http.ServeMux
	start time.Time

	// base outlives individual requests: coalesced enumerations run under
	// it so the leader's disconnect does not abort followers' work.
	base       context.Context
	baseCancel context.CancelFunc

	// snap is the snapshot store when Options.StateDir is set, nil
	// otherwise. stateLoaded/stateSkipped/stateErr describe the boot-time
	// restore (see StateReport).
	snap         *snapshot.Store
	stateLoaded  int
	stateSkipped int
	stateErr     error
	persistErrs  atomic.Uint64
	// persists counts completed snapshot writes (telemetry for the
	// write-amplification tests: a burst of cached enumerations must not
	// grow it by more than the flush cadence allows).
	persists atomic.Uint64
	// snapRetries counts persist attempts for workloads whose previous
	// attempt failed (mvrc_snapshot_retries_total); degraded is flipped by
	// the flusher after degradedAfterRounds consecutive failed rounds and
	// cleared by the first clean one.
	snapRetries atomic.Uint64
	degraded    atomic.Bool
	// draining marks the window between BeginDrain/Close and process
	// exit: /healthz/ready answers 503 so load balancers stop routing,
	// while in-flight requests run to completion.
	draining atomic.Bool

	// admission is the -max-concurrent-checks semaphore over the analysis
	// routes; nil means unlimited. shed counts 429s, panics counts
	// recovered handler and worker panics.
	admission chan struct{}
	shed      atomic.Uint64
	panics    atomic.Uint64

	// dirty is the debounce set of the background flusher: workloads whose
	// result cache grew since their last snapshot write. Guarded by
	// dirtyMu; the flusher swaps the map out and persists each entry it
	// can still pin. failedPersist (same lock) marks workloads whose last
	// persist failed, so the retry counter can distinguish a retry from a
	// first attempt.
	dirtyMu       sync.Mutex
	dirty         map[string]*workload
	failedPersist map[string]bool
	// flushDone is closed when the background flusher exits (nil when
	// persistence is off and no flusher runs); Close waits on it.
	flushDone chan struct{}

	// lastEnforce is the unix-nano time of the last release-path budget
	// enforcement (see release).
	lastEnforce atomic.Int64

	registers, checks, subsets, patches, coalesced atomic.Uint64
	// streamed counts subsets:stream requests; earlyTerms the streams that
	// stopped early by mode or budget (not client disconnects).
	streamed, earlyTerms atomic.Uint64
	// certifies counts /certify requests; unrealizedCands accumulates the
	// candidate instantiations those requests searched without finding a
	// counterexample (the certification pipeline's miss telemetry).
	certifies, unrealizedCands atomic.Uint64

	// metrics is the Prometheus registry behind GET /metrics plus the
	// shared phase tracer (see metrics.go); logger is Options.Logger.
	// statsGen stamps /v1/stats responses; reqPrefix/reqSeq mint request
	// IDs for requests arriving without an X-Request-ID header.
	metrics   *metrics
	logger    *slog.Logger
	statsGen  atomic.Uint64
	reqSeq    atomic.Uint64
	reqPrefix string

	// testFlightHook, when non-nil, runs inside the flight goroutine
	// before the enumeration starts — a seam for deterministic
	// coalescing tests.
	testFlightHook func()
}

// New creates a Server ready to serve its Handler.
func New(opts Options) *Server {
	if opts.MaxWorkloads <= 0 {
		opts.MaxWorkloads = DefaultMaxWorkloads
	}
	base, cancel := context.WithCancel(context.Background())
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	switch {
	case opts.RequestTimeout == 0:
		opts.RequestTimeout = DefaultRequestTimeout
	case opts.RequestTimeout < 0:
		opts.RequestTimeout = 0 // explicit opt-out: no server-side deadline
	}
	s := &Server{
		opts:          opts,
		reg:           newRegistry(opts.MaxWorkloads, opts.MaxBytes),
		mux:           http.NewServeMux(),
		start:         time.Now(),
		base:          base,
		baseCancel:    cancel,
		dirty:         make(map[string]*workload),
		failedPersist: make(map[string]bool),
		logger:        opts.Logger,
	}
	if opts.MaxConcurrentChecks > 0 {
		s.admission = make(chan struct{}, opts.MaxConcurrentChecks)
	}
	s.reqPrefix = "r" + strconv.FormatUint(uint64(s.start.UnixNano()), 36) + "-"
	// Built before loadState: boot-time evictions already run persist, which
	// observes the snapshot_flush phase.
	s.metrics = newMetrics(s)
	// Evicted workloads must not resurrect on the next boot. The callback
	// runs after the registry lock is released, so the same fingerprint may
	// have re-registered (and persisted) while the deletion was in flight —
	// in that case re-persist the resident workload rather than letting the
	// late delete lose it across restarts.
	s.reg.onEvict = func(w *workload) {
		if s.snap == nil {
			return
		}
		s.snap.Delete(w.id)
		if res := s.reg.peek(w.id); res != nil {
			if !s.persist(res) {
				s.markDirty(res)
			}
		}
	}
	if opts.StateDir != "" {
		s.loadState(opts.StateDir)
	}
	if s.snap != nil {
		s.flushDone = make(chan struct{})
		go s.flushLoop()
	}
	s.handle("GET /healthz", epHealthz, s.handleHealthz)
	s.handle("GET /healthz/live", epLive, s.handleLive)
	s.handle("GET /healthz/ready", epReady, s.handleReady)
	s.handle("GET /metrics", epMetrics, s.metrics.reg.Handler())
	s.handle("GET /v1/stats", epStats, s.handleStats)
	s.handle("POST /v1/workloads", epRegister, s.handleRegister)
	s.handle("POST /v1/workloads:fromSQL", epFromSQL, s.handleFromSQL)
	s.handle("GET /v1/workloads/{id}", epWorkload, s.handleGetWorkload)
	s.handle("POST /v1/workloads/{id}/check", epCheck, s.handleCheck)
	s.handle("POST /v1/workloads/{id}/subsets", epSubsets, s.handleSubsets)
	s.handle("POST /v1/workloads/{id}/subsets:stream", epSubsetsStream, s.handleSubsetsStream)
	s.handle("GET /v1/workloads/{id}/subsets:stream", epSubsetsStream, s.handleSubsetsStream)
	s.handle("POST /v1/workloads/{id}/certify", epCertify, s.handleCertify)
	s.handle("PATCH /v1/workloads/{id}/programs/{name}", epPatch, s.handlePatch)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// StateReport describes the boot-time snapshot restore: how many workloads
// were loaded, how many snapshot files were skipped as corrupt, partial or
// stale-format, and whether the state directory itself was unusable (Err
// non-nil means persistence is disabled for this process).
func (s *Server) StateReport() (loaded, skipped int, err error) {
	return s.stateLoaded, s.stateSkipped, s.stateErr
}

// loadState opens the snapshot store and restores every decodable workload.
// Each snapshot is verified by recomputing the registration fingerprint
// from its decoded schema and programs; files that fail to decode, verify
// or rebuild are counted as skipped — a corrupt snapshot costs a warm-up,
// never the boot.
func (s *Server) loadState(dir string) {
	st, err := snapshot.OpenFS(dir, s.opts.SnapshotFS)
	if err != nil {
		s.stateErr = err
		return
	}
	s.snap = st
	files, skipped, err := st.LoadAll()
	s.stateSkipped = len(skipped)
	if err != nil {
		s.stateErr = err
		return
	}
	for _, f := range files {
		w, err := restoreWorkload(f)
		if err != nil {
			s.stateSkipped++
			continue
		}
		res, created := s.reg.register(w)
		res.pins.Add(-1) // no post-registration work during boot restore
		if created {
			s.stateLoaded++
		}
	}
	s.reg.enforceBytes()
}

// restoreWorkload rebuilds a workload from its snapshot and verifies the
// stored id against a freshly computed fingerprint — a snapshot that
// decodes but does not reproduce its own fingerprint is corrupt.
func restoreWorkload(f *snapshot.File) (*workload, error) {
	if len(f.Programs) == 0 {
		return nil, errors.New("snapshot has no programs")
	}
	schema, err := f.Schema.Build()
	if err != nil {
		return nil, err
	}
	programs := make([]*btp.Program, len(f.Programs))
	for i, sp := range f.Programs {
		if programs[i], err = sp.Build(schema); err != nil {
			return nil, err
		}
	}
	w := newWorkload(schema, programs)
	// w.id is the fingerprint of the decoded content; it must reproduce the
	// stored content hash for every snapshot, and additionally the
	// registration id at version 0 (a PATCHed workload's content
	// legitimately drifts from its registration fingerprint — the id stays
	// the registry key).
	if w.id != f.Content {
		return nil, fmt.Errorf("snapshot content fingerprint mismatch: file %s, computed %s", f.Content, w.id)
	}
	if f.Version == 0 && f.ID != f.Content {
		return nil, fmt.Errorf("snapshot fingerprint mismatch: file %s, content %s at version 0", f.ID, f.Content)
	}
	w.id = f.ID
	w.version = f.Version
	w.results.restore(f.Results, f.Version)
	importCoreGroups(programs, f.Cores, w.sess.ImportCores)
	importCoreGroups(programs, f.Covers, w.sess.ImportCovers)
	return w, nil
}

// persist writes the workload's snapshot now, reporting success. Failures
// are counted (persist_errors in /v1/stats) and the server keeps serving
// from memory; the flusher uses the return value to re-queue the workload
// so a transient disk error does not silently abandon the burst.
// Per-workload serialization (persistMu) makes the state read and the file
// replacement atomic against each other — without it, a persist still
// holding pre-PATCH state could win the rename against the PATCH's newer
// snapshot.
func (s *Server) persist(w *workload) bool {
	if s.snap == nil {
		return true
	}
	w.persistMu.Lock()
	defer w.persistMu.Unlock()
	s.dirtyMu.Lock()
	if s.failedPersist[w.id] {
		s.snapRetries.Add(1)
	}
	s.dirtyMu.Unlock()
	start := time.Now()
	f, err := w.snapshotFile()
	if err == nil {
		err = s.snap.Save(f)
	}
	s.metrics.observePhase(obs.PhaseFlush, time.Since(start))
	s.dirtyMu.Lock()
	if err != nil {
		s.failedPersist[w.id] = true
	} else {
		delete(s.failedPersist, w.id)
	}
	s.dirtyMu.Unlock()
	if err != nil {
		s.persistErrs.Add(1)
		if s.logger != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelWarn, "snapshot_persist_failed",
				slog.String("workload", w.id), slog.String("error", err.Error()))
		}
		return false
	}
	s.persists.Add(1)
	return true
}

// markDirty queues the workload for the next debounced snapshot flush
// instead of rewriting its file in-line — the fix for the result-cache
// write amplification: a burst of newly cached enumerations rewrites the
// workload file once per flush interval, not once per request.
func (s *Server) markDirty(w *workload) {
	if s.snap == nil {
		return
	}
	s.dirtyMu.Lock()
	s.dirty[w.id] = w
	s.dirtyMu.Unlock()
}

// flushLoop is the background flusher: one flush round per FlushInterval
// until Close. A round with persist failures doubles the next delay
// (capped at maxFlushBackoff, with up to 25% jitter so restarted replicas
// don't retry in lockstep) — the failed workloads are back on the dirty
// set, so every delayed round is a retry, not a drop. After
// degradedAfterRounds consecutive failures the server enters degraded-
// persistence mode (healthz, readiness, mvrc_snapshot_degraded); the
// first clean round restores the cadence and clears the flag. Only
// started when persistence is enabled.
func (s *Server) flushLoop() {
	defer close(s.flushDone)
	interval := s.opts.FlushInterval
	consecutive := 0
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-s.base.Done():
			return
		case <-t.C:
			if failed := s.flushRound(); failed > 0 {
				consecutive++
				if consecutive == degradedAfterRounds {
					s.degraded.Store(true)
					if s.logger != nil {
						s.logger.LogAttrs(context.Background(), slog.LevelError, "persistence_degraded",
							slog.Int("consecutive_failed_rounds", consecutive))
					}
				}
				interval = min(interval*2, maxFlushBackoff)
				t.Reset(interval + rand.N(interval/4+1))
			} else {
				if consecutive >= degradedAfterRounds && s.logger != nil {
					s.logger.LogAttrs(context.Background(), slog.LevelInfo, "persistence_recovered",
						slog.Int("failed_rounds", consecutive))
				}
				consecutive = 0
				s.degraded.Store(false)
				interval = s.opts.FlushInterval
				t.Reset(interval)
			}
		}
	}
}

// Flush persists every dirty workload now. Each workload is pinned (without
// bumping its recency) for the duration of its write, so a concurrent
// eviction cannot interleave its snapshot deletion with the write and leave
// an evicted workload resurrectable; a workload evicted before the flush
// reaches it is skipped — its snapshot is already gone by design. Called by
// the background flusher, by Close (the explicit shutdown flush), and by
// tests and embedders that need durability at a known point.
func (s *Server) Flush() { s.flushRound() }

// flushRound is one Flush pass, reporting how many workloads failed to
// persist (each failure re-queues its workload on the dirty set, so the
// next round — or the shutdown flush — retries instead of silently
// dropping the burst's durability).
func (s *Server) flushRound() (failed int) {
	s.dirtyMu.Lock()
	dirty := s.dirty
	s.dirty = make(map[string]*workload)
	s.dirtyMu.Unlock()
	for id, w := range dirty {
		res := s.reg.pin(id)
		if res == nil {
			continue // evicted since it was marked; its snapshot is gone by design
		}
		if res != w {
			// The id was evicted and re-registered as a fresh workload:
			// registration persisted it, nothing to flush — but the pin we
			// just took is on the NEW workload and must be released, or it
			// would be unevictable forever.
			res.pins.Add(-1)
			continue
		}
		if !s.persist(w) {
			failed++
			s.markDirty(w)
		}
		w.pins.Add(-1)
	}
	return failed
}

// BeginDrain marks the server as draining: /healthz/ready answers 503 so
// load balancers stop routing here, while every admitted request (and the
// liveness probe) keeps working. Call it when graceful shutdown starts,
// before the HTTP server stops accepting connections; ServeListener does.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close flushes pending snapshot writes and aborts any coalesced
// enumerations still running in the background. It first waits for the
// background flusher to finish its round and exit, so no snapshot op runs
// after Close returns. The final flush is retried with short backoff; if
// dirty workloads still cannot be persisted the error says how many —
// their cached results exist only in this process's memory, so callers
// exiting afterwards should surface the loss (cmd/robustserved exits
// non-zero). Registered workloads (and their caches) are simply garbage
// once the Server is unreferenced.
func (s *Server) Close() error {
	s.BeginDrain()
	s.baseCancel()
	if s.flushDone != nil {
		<-s.flushDone // the flusher may be mid-round
	}
	var failed int
	for attempt := 1; ; attempt++ {
		if failed = s.flushRound(); failed == 0 {
			return nil
		}
		if attempt >= closeFlushAttempts {
			break
		}
		time.Sleep(closeFlushBackoff * time.Duration(attempt))
	}
	return fmt.Errorf("server: %d workload snapshot(s) still unpersisted after %d shutdown flush attempts",
		failed, closeFlushAttempts)
}

// Register registers a workload programmatically (the CLI's -preload path
// uses this; HTTP clients use POST /v1/workloads). Programs are validated
// against the schema before the workload is admitted.
func (s *Server) Register(schema *relschema.Schema, programs []*btp.Program) (*wire.RegisterWorkloadResponse, error) {
	if len(programs) == 0 {
		return nil, errors.New("workload has no programs")
	}
	seen := make(map[string]bool, len(programs))
	for _, p := range programs {
		if err := p.Validate(schema); err != nil {
			return nil, err
		}
		names := []string{p.Name}
		if p.Abbrev != "" && p.Abbrev != p.Name {
			names = append(names, p.Abbrev)
		}
		for _, n := range names {
			if seen[n] {
				return nil, fmt.Errorf("duplicate program name %q", n)
			}
			seen[n] = true
		}
	}
	// register returns the workload pinned; the pin covers the drift reset
	// and persist below, so a racing eviction cannot delete a snapshot this
	// registration is about to (re-)write.
	w, created := s.reg.register(newWorkload(schema, programs))
	defer w.pins.Add(-1)
	reset := false
	if !created {
		// The resident workload may have been PATCHed since its
		// registration; registering pristine content again restores it,
		// so the caller gets verdicts for the programs it submitted.
		reset = w.resetIfDrifted(programs)
	}
	if created || reset {
		if reset {
			// The reset bumped the version, orphaning every cached result.
			w.results.invalidate()
		}
		// Synchronous persists that fail fall back to the flusher's retry
		// schedule: the workload stays dirty until a write sticks, so a
		// transient disk error costs durability latency, never the snapshot.
		if !s.persist(w) {
			s.markDirty(w)
		}
	}
	s.reg.enforceBytes()
	s.registers.Add(1)
	ps, version := w.programList()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return &wire.RegisterWorkloadResponse{
		ID: w.id, Created: created, Version: version, Programs: names,
	}, nil
}

// --- HTTP plumbing ---------------------------------------------------------

func (s *Server) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	bi := obs.Build()
	writeJSON(rw, http.StatusOK, &wire.HealthzResponse{
		Status:        "ok",
		Version:       bi.Version,
		Revision:      bi.Revision,
		GoVersion:     bi.GoVersion,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Persistence:   s.persistenceStatus(),
	})
}

// persistenceStatus summarizes the snapshot subsystem for the health
// endpoints: "" (disabled), "ok", "degraded" (the flusher is failing and
// backing off) or "failed" (the state directory was unusable at boot).
func (s *Server) persistenceStatus() string {
	switch {
	case s.stateErr != nil:
		return "failed"
	case s.snap == nil:
		return ""
	case s.degraded.Load():
		return "degraded"
	default:
		return "ok"
	}
}

// handleLive is the liveness probe: 200 for as long as the process can
// serve HTTP at all. Restarting a server because its disk filled up
// destroys the in-memory caches that still answer requests correctly —
// liveness must not observe persistence.
func (s *Server) handleLive(rw http.ResponseWriter, _ *http.Request) {
	writeJSON(rw, http.StatusOK, &wire.ReadyResponse{Status: "live"})
}

// handleReady is the readiness probe: 503 while draining for shutdown or
// while persistence is degraded (a restarted-elsewhere replica with a
// working disk is strictly better to route to), 200 otherwise.
func (s *Server) handleReady(rw http.ResponseWriter, _ *http.Request) {
	resp := &wire.ReadyResponse{Status: "ready", Persistence: s.persistenceStatus()}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status = "draining"
		resp.Draining = true
		status = http.StatusServiceUnavailable
	case s.degraded.Load():
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	writeJSON(rw, status, resp)
}

// admit reserves a -max-concurrent-checks slot for an analysis request,
// shedding with 429 + Retry-After when the server is saturated. Callers
// that get true must release the slot with admitDone when the request
// finishes. With no cap configured every request is admitted for free.
func (s *Server) admit(rw http.ResponseWriter) bool {
	if s.admission == nil {
		return true
	}
	select {
	case s.admission <- struct{}{}:
		return true
	default:
		s.shed.Add(1)
		rw.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSeconds))
		writeJSON(rw, http.StatusTooManyRequests, wire.Error{
			Error:             fmt.Sprintf("server is at its -max-concurrent-checks capacity (%d analyses in flight)", cap(s.admission)),
			Code:              "overloaded",
			RetryAfterSeconds: shedRetryAfterSeconds,
		})
		return false
	}
}

// admitDone releases an admission slot taken by admit.
func (s *Server) admitDone() {
	if s.admission != nil {
		<-s.admission
	}
}

// writeJSON sends a wire document with the given status.
func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	wire.WriteJSON(rw, v)
}

// writeError maps an error to the uniform error envelope.
func writeError(rw http.ResponseWriter, status int, err error) {
	writeJSON(rw, status, wire.Error{Error: err.Error()})
}

// analysisStatus maps an analysis error to an HTTP status: cancellations
// and deadlines surface as such, anything else is the client's input.
func analysisStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusUnprocessableEntity
	}
}

// noteWorkerPanic counts and logs a recovered engine-worker panic that
// surfaced as an error, returning it when err carries one and nil
// otherwise. Worker panics are server faults, never the client's input —
// they must land in mvrc_panics_total and the log with the worker stack,
// and answer 500, not 422.
func (s *Server) noteWorkerPanic(r *http.Request, err error) *analysis.PanicError {
	var pe *analysis.PanicError
	if !errors.As(err, &pe) {
		return nil
	}
	s.panics.Add(1)
	if s.logger != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelError, "worker_panic",
			slog.Any("value", pe.Value),
			slog.String("stack", string(pe.Stack)),
			slog.String("request_id", obs.RequestIDFrom(r.Context())))
	}
	return pe
}

// analysisError writes an engine error to the wire: recovered worker
// panics become a structured 500 with code "panic"; everything else goes
// through analysisStatus.
func (s *Server) analysisError(rw http.ResponseWriter, r *http.Request, err error) {
	if pe := s.noteWorkerPanic(r, err); pe != nil {
		writeJSON(rw, http.StatusInternalServerError, wire.Error{Error: pe.Error(), Code: "panic"})
		return
	}
	writeError(rw, analysisStatus(err), err)
}

// maxBodyBytes bounds every JSON request body, :fromSQL scripts and PATCH
// SQL included (the nine corpus scripts of internal/sqlbtp/testdata total
// 40 KB).
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into v.
// An empty body is allowed when optional is true (the zero value then
// stands for the defaults).
func decodeBody(rw http.ResponseWriter, r *http.Request, v any, optional bool) error {
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if errors.Is(err, io.EOF) && optional {
		return nil
	}
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// badRequest answers a request the client has to change: 413 with code
// body_too_large for a body over maxBodyBytes, otherwise 400, carrying the
// code of a wire.CodedError. Handlers call it before admission, so a
// refused request never takes an analysis slot.
func badRequest(rw http.ResponseWriter, err error) {
	body := wire.Error{Error: err.Error()}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	var coded *wire.CodedError
	switch {
	case errors.As(err, &tooLarge):
		status, body.Code = http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.As(err, &coded):
		body.Code = coded.Code
	}
	writeJSON(rw, status, body)
}

// requestCtx derives the analysis context for one request: the client's
// context bounded by the configured timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// lookup resolves the {id} path segment and pins the workload against
// eviction for the duration of the request; every caller must release the
// pin with s.release (which also gives the -max-bytes policy a chance to
// act on whatever the request grew).
func (s *Server) lookup(rw http.ResponseWriter, r *http.Request) *workload {
	id := r.PathValue("id")
	w := s.reg.getPinned(id)
	if w == nil {
		writeError(rw, http.StatusNotFound, fmt.Errorf("no workload %q", id))
	}
	return w
}

// enforceEvery throttles the release-path budget walk: recomputing every
// workload's size estimate on each of a burst of cheap requests (e.g.
// result-cache hits) would contend the session locks for nothing, and the
// budget drifts slowly between analyses. Registration always enforces
// unthrottled — it is the path that adds whole workloads at once.
const enforceEvery = 100 * time.Millisecond

// release unpins a workload obtained from lookup and re-enforces the
// -max-bytes budget, at most once per enforceEvery across all requests.
func (s *Server) release(w *workload) {
	w.pins.Add(-1)
	if s.opts.MaxBytes <= 0 {
		return
	}
	now := time.Now().UnixNano()
	last := s.lastEnforce.Load()
	if now-last >= int64(enforceEvery) && s.lastEnforce.CompareAndSwap(last, now) {
		s.reg.enforceBytes()
	}
}

// config resolves a CheckRequest into the engine configuration. The
// request's per-request parallelism wins when set; an unset field falls
// back to the server's -parallel option, and a set field is capped by the
// resolved server bound — the -parallel option, or GOMAXPROCS when the
// operator left it unset. The cap is what keeps the field safe to expose:
// an unauthenticated request must not be able to dictate an arbitrary
// goroutine count.
func (s *Server) config(req *wire.CheckRequest) (analysis.Config, error) {
	cfg, err := req.Config()
	if err != nil {
		return cfg, err
	}
	if bound := effectiveParallelism(s.opts.Parallelism); cfg.Parallelism <= 0 || cfg.Parallelism > bound {
		cfg.Parallelism = bound
	}
	return cfg, nil
}

// effectiveParallelism resolves the knob's 0-means-GOMAXPROCS convention for
// reporting in /v1/stats.
func effectiveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// --- Handlers --------------------------------------------------------------

func (s *Server) handleRegister(rw http.ResponseWriter, r *http.Request) {
	var req wire.RegisterWorkloadRequest
	if err := decodeBody(rw, r, &req, false); err != nil {
		badRequest(rw, err)
		return
	}
	var (
		schema   *relschema.Schema
		programs []*btp.Program
	)
	switch {
	case req.Benchmark != "":
		bench, err := benchmarks.ByName(req.Benchmark, req.N)
		if err != nil {
			writeError(rw, http.StatusBadRequest, err)
			return
		}
		schema, programs = bench.Schema, bench.Programs
		if req.ProgramsSQL != "" {
			programs, err = sqlbtp.Parse(schema, req.ProgramsSQL)
			if err != nil {
				writeError(rw, http.StatusBadRequest, fmt.Errorf("programs_sql: %w", err))
				return
			}
		}
	case req.Schema != nil && req.ProgramsSQL != "":
		var err error
		schema, err = req.Schema.Build()
		if err != nil {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("schema: %w", err))
			return
		}
		programs, err = sqlbtp.Parse(schema, req.ProgramsSQL)
		if err != nil {
			writeError(rw, http.StatusBadRequest, fmt.Errorf("programs_sql: %w", err))
			return
		}
	default:
		writeError(rw, http.StatusBadRequest,
			errors.New("register needs either benchmark or schema + programs_sql"))
		return
	}
	resp, err := s.Register(schema, programs)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if resp.Created {
		status = http.StatusCreated
	}
	writeJSON(rw, status, resp)
}

// handleFromSQL registers a workload straight from dialect SQL: the body
// selects a dialect front-end and carries either a self-contained script or
// DDL plus per-program SQL. Compilation failures answer 400 with a
// wire.SQLError carrying the dialect, program, line and column of the
// offending source.
func (s *Server) handleFromSQL(rw http.ResponseWriter, r *http.Request) {
	var req wire.FromSQLRequest
	if err := decodeBody(rw, r, &req, false); err != nil {
		badRequest(rw, err)
		return
	}
	src := sqlbtp.Source{Dialect: req.Dialect, Script: req.Script, DDL: req.DDL}
	for _, p := range req.Programs {
		src.Programs = append(src.Programs, sqlbtp.NamedSQL{Name: p.Name, Abbrev: p.Abbrev, SQL: p.SQL})
	}
	wl, err := sqlbtp.Compile(src)
	if err != nil {
		var perr *sqlbtp.ParseError
		if errors.As(err, &perr) {
			writeJSON(rw, http.StatusBadRequest, &wire.SQLError{
				Error:   perr.Error(),
				Dialect: perr.Dialect,
				Program: perr.Program,
				Line:    perr.Line,
				Column:  perr.Col,
			})
			return
		}
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	resp, err := s.Register(wl.Schema, wl.Programs)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if resp.Created {
		status = http.StatusCreated
	}
	writeJSON(rw, status, resp)
}

func (s *Server) handleGetWorkload(rw http.ResponseWriter, r *http.Request) {
	w := s.lookup(rw, r)
	if w == nil {
		return
	}
	defer s.release(w)
	writeJSON(rw, http.StatusOK, s.workloadStats(w))
}

func (s *Server) handleCheck(rw http.ResponseWriter, r *http.Request) {
	w := s.lookup(rw, r)
	if w == nil {
		return
	}
	defer s.release(w)
	var req wire.CheckRequest
	if err := decodeBody(rw, r, &req, true); err != nil {
		badRequest(rw, err)
		return
	}
	cfg, err := s.config(&req)
	if err != nil {
		badRequest(rw, err)
		return
	}
	programs, version, err := w.snapshot(req.Programs)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if !s.admit(rw) {
		return
	}
	defer s.admitDone()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	tracer, recorder := s.requestTracer(r)
	cfg.Tracer = tracer
	res, err := w.session().CheckCtx(ctx, programs, cfg)
	if err != nil {
		s.analysisError(rw, r, err)
		return
	}
	s.checks.Add(1)
	w.checks.Add(1)
	w.lastParallelism.Store(int64(effectiveParallelism(cfg.Parallelism)))
	rw.Header().Set("X-Workload-Version", fmt.Sprint(version))
	resp := wire.NewCheckResponse(cfg, programs, res)
	if recorder != nil {
		resp.Timings = wire.NewPhaseTimings(recorder.Snapshot())
	}
	writeJSON(rw, http.StatusOK, resp)
}

func (s *Server) handleSubsets(rw http.ResponseWriter, r *http.Request) {
	w := s.lookup(rw, r)
	if w == nil {
		return
	}
	defer s.release(w)
	var req wire.CheckRequest
	if err := decodeBody(rw, r, &req, true); err != nil {
		badRequest(rw, err)
		return
	}
	cfg, err := s.config(&req)
	if err != nil {
		badRequest(rw, err)
		return
	}
	programs, version, err := w.snapshot(req.Programs)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if !enumerable(rw, programs) || !s.admit(rw) {
		return
	}
	defer s.admitDone()
	// A ?debug=timings request wants this run's spans, so it bypasses both
	// the result cache (stored bytes would replay another run's document —
	// and cached bodies must stay byte-identical, so the timings block is
	// never stored) and the coalescing (a follower observes no spans). The
	// enumeration runs under the request context like any uncached request.
	if tracer, recorder := s.requestTracer(r); recorder != nil {
		cfg.Tracer = tracer
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		rep, err := w.session().RobustSubsetsCtx(ctx, programs, cfg)
		if err != nil {
			s.analysisError(rw, r, err)
			return
		}
		s.subsets.Add(1)
		w.subsets.Add(1)
		w.lastParallelism.Store(int64(effectiveParallelism(cfg.Parallelism)))
		resp := wire.NewSubsetsResponse(cfg, programs, rep)
		resp.Timings = wire.NewPhaseTimings(recorder.Snapshot())
		rw.Header().Set("X-Workload-Version", fmt.Sprint(version))
		writeJSON(rw, http.StatusOK, resp)
		return
	}
	// The result cache sits above the in-flight coalescing: an identical
	// enumeration already answered (same version, configuration and
	// program selection — parallelism excluded, it never changes verdicts)
	// is served from its stored bytes without touching the engine.
	key := requestKey(version, cfg, programs)
	if body, ok := w.results.get(key); ok {
		s.subsets.Add(1)
		w.subsets.Add(1)
		w.lastParallelism.Store(int64(effectiveParallelism(cfg.Parallelism)))
		writeRaw(rw, version, body)
		return
	}
	// The coalesced leader runs with the shared metrics tracer: its spans
	// land in the phase histogram (followers add none — no duplicate
	// observations for one engine run).
	tracer, _ := s.requestTracer(r)
	cfg.Tracer = tracer
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	resp, respVersion, err := s.subsetsCoalesced(ctx, w, key, cfg, programs, version)
	if err != nil {
		s.analysisError(rw, r, err)
		return
	}
	s.subsets.Add(1)
	w.subsets.Add(1)
	w.lastParallelism.Store(int64(effectiveParallelism(cfg.Parallelism)))
	// Encode once: the same bytes go to this response, into the result
	// cache and (via the snapshot) across restarts, so hits are
	// byte-identical to the original answer by construction. The encode
	// buffer is pooled; the cache keeps an exact-size copy, since put
	// retains its body slice.
	buf := getLineBuf()
	defer putLineBuf(buf)
	if err := wire.WriteJSON(buf, resp); err != nil {
		writeError(rw, http.StatusInternalServerError, err)
		return
	}
	writeRaw(rw, respVersion, buf.Bytes())
	// A new cached result only marks the workload dirty; the debounced
	// flusher rewrites the snapshot file once per interval however many
	// enumerations a burst caches, and never in the client's latency.
	if w.results.put(key, respVersion, append([]byte(nil), buf.Bytes()...)) {
		s.markDirty(w)
	}
}

// enumerable rejects a subset enumeration over more than
// analysis.MaxSubsetPrograms programs with a structured 400. Both subsets
// endpoints call it before admission, so an infeasible request never
// takes an analysis slot and is told the same thing on either endpoint.
func enumerable(rw http.ResponseWriter, programs []*btp.Program) bool {
	if n := len(programs); n > analysis.MaxSubsetPrograms {
		writeJSON(rw, http.StatusBadRequest, wire.Error{
			Error: fmt.Sprintf("subset enumeration over %d programs exceeds the limit of %d", n, analysis.MaxSubsetPrograms),
			Code:  "too_many_programs",
		})
		return false
	}
	return true
}

// writeRaw sends pre-encoded wire bytes with the workload-version header.
func writeRaw(rw http.ResponseWriter, version uint64, body []byte) {
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set("X-Workload-Version", fmt.Sprint(version))
	rw.WriteHeader(http.StatusOK)
	rw.Write(body)
}

// requestKey identifies one subset enumeration for both the in-flight
// coalescing and the result cache: workload version, analysis
// configuration and program selection.
func requestKey(version uint64, cfg analysis.Config, programs []*btp.Program) string {
	names := make([]string, len(programs))
	for i, p := range programs {
		names[i] = p.Name
	}
	return fmt.Sprintf("%d|%s|%s|%d|%s",
		version, wire.SettingName(cfg.Setting), wire.MethodName(cfg.Method),
		cfg.UnfoldBound, strings.Join(names, ","))
}

// subsetsCoalesced answers one subset enumeration, merging requests that
// ask for the identical enumeration (same workload version, configuration
// and program selection) while one is already in flight: followers block
// on the leader's result instead of duplicating the exponential sweep. The
// computation runs under the server's base context so a leader's
// disconnect does not abort its followers; the last waiter to give up
// cancels it.
func (s *Server) subsetsCoalesced(ctx context.Context, w *workload, key string, cfg analysis.Config, programs []*btp.Program, version uint64) (*wire.SubsetsResponse, uint64, error) {
	w.flightMu.Lock()
	call, joined := w.flight[key]
	if !joined {
		var (
			runCtx    context.Context
			runCancel context.CancelFunc
		)
		if s.opts.RequestTimeout > 0 {
			runCtx, runCancel = context.WithTimeout(s.base, s.opts.RequestTimeout)
		} else {
			runCtx, runCancel = context.WithCancel(s.base)
		}
		call = &flightCall{done: make(chan struct{}), version: version, cancel: runCancel}
		w.flight[key] = call
		go func() {
			defer runCancel()
			// The cleanup lives in the deferred recovery: a panic escaping
			// the engine (or the test hook) must still detach the flight
			// entry and close done, or every follower would block forever —
			// and an unrecovered panic on this detached goroutine would
			// kill the whole process.
			defer func() {
				if p := recover(); p != nil {
					call.err = &analysis.PanicError{Value: p, Stack: debug.Stack()}
				}
				w.flightMu.Lock()
				// The last waiter may have detached this call and a fresh
				// leader re-registered the key; only remove our own entry.
				if w.flight[key] == call {
					delete(w.flight, key)
				}
				w.flightMu.Unlock()
				close(call.done)
			}()
			if s.testFlightHook != nil {
				s.testFlightHook()
			}
			rep, err := w.session().RobustSubsetsCtx(runCtx, programs, cfg)
			if err != nil {
				call.err = err
			} else {
				call.resp = wire.NewSubsetsResponse(cfg, programs, rep)
			}
		}()
	} else {
		s.coalesced.Add(1)
	}
	call.waiters.Add(1)
	w.flightMu.Unlock()

	select {
	case <-call.done:
		call.waiters.Add(-1)
		if call.err != nil {
			return nil, 0, call.err
		}
		return call.resp.(*wire.SubsetsResponse), call.version, nil
	case <-ctx.Done():
		// Deciding to cancel must be serialized with joins (which happen
		// under flightMu): otherwise a request could join the flight just
		// as its last waiter cancels it, and fail with the canceller's
		// error despite a healthy connection. Detaching the entry first
		// also ensures late arrivals start a fresh enumeration.
		w.flightMu.Lock()
		last := call.waiters.Add(-1) == 0
		if last && w.flight[key] == call {
			delete(w.flight, key)
		}
		w.flightMu.Unlock()
		if last {
			call.cancel()
		}
		return nil, 0, ctx.Err()
	}
}

// handleCertify runs the certification pipeline for one program subset: a
// static check through the workload's session and, on a non-robust
// verdict, realize → interleaving search → engine replay (internal/
// certify). A newly certified core changes the session's fact store, which
// the snapshot persists, so the workload is marked dirty for the next
// debounced flush.
func (s *Server) handleCertify(rw http.ResponseWriter, r *http.Request) {
	w := s.lookup(rw, r)
	if w == nil {
		return
	}
	defer s.release(w)
	var req wire.CertifyRequest
	if err := decodeBody(rw, r, &req, true); err != nil {
		badRequest(rw, err)
		return
	}
	cfg, err := s.config(&req.CheckRequest)
	if err != nil {
		badRequest(rw, err)
		return
	}
	programs, version, err := w.snapshot(req.Programs)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if !s.admit(rw) {
		return
	}
	defer s.admitDone()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	tracer, recorder := s.requestTracer(r)
	cfg.Tracer = tracer
	res, err := certify.Subset(ctx, w.session(), cfg, programs, certify.Options{
		MaxSchedules: req.MaxSchedules,
		Parallelism:  cfg.Parallelism,
	})
	if err != nil {
		s.analysisError(rw, r, err)
		return
	}
	s.certifies.Add(1)
	w.lastParallelism.Store(int64(effectiveParallelism(cfg.Parallelism)))
	if res.Status == certify.Unrealized {
		s.unrealizedCands.Add(uint64(res.Candidates))
	}
	if res.NewlyCertified {
		s.markDirty(w)
	}
	rw.Header().Set("X-Workload-Version", fmt.Sprint(version))
	resp := wire.NewCertifyResponse(cfg, programs, res)
	if recorder != nil {
		resp.Timings = wire.NewPhaseTimings(recorder.Snapshot())
	}
	writeJSON(rw, http.StatusOK, resp)
}

func (s *Server) handlePatch(rw http.ResponseWriter, r *http.Request) {
	w := s.lookup(rw, r)
	if w == nil {
		return
	}
	defer s.release(w)
	var req wire.PatchProgramRequest
	if err := decodeBody(rw, r, &req, false); err != nil {
		badRequest(rw, err)
		return
	}
	if req.SQL == "" {
		writeError(rw, http.StatusBadRequest, errors.New("patch needs a sql body"))
		return
	}
	name, invalidated, version, err := w.patch(r.PathValue("name"), req.SQL)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	// The version bump orphans every cached result of this workload (and
	// only this one); drop them eagerly and persist the patched definition.
	results := w.results.invalidate()
	if !s.persist(w) {
		s.markDirty(w)
	}
	s.patches.Add(1)
	w.patches.Add(1)
	writeJSON(rw, http.StatusOK, &wire.PatchProgramResponse{
		Program: name, Version: version,
		InvalidatedPairs: invalidated, InvalidatedResults: results,
	})
}

func (s *Server) workloadStats(w *workload) wire.WorkloadStats {
	ps, version := w.programList()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return wire.WorkloadStats{
		ID:              w.id,
		Version:         version,
		Programs:        names,
		Checks:          w.checks.Load(),
		Subsets:         w.subsets.Load(),
		Patches:         w.patches.Load(),
		LastParallelism: int(w.lastParallelism.Load()),
		Cache:           wire.NewCacheStats(w.session().Stats()),
		ResultCache:     w.results.stats(),
		SizeBytes:       w.sizeBytes(),
	}
}

func (s *Server) handleStats(rw http.ResponseWriter, _ *http.Request) {
	// Snapshot-then-encode: statsSnapshot materializes every counter into
	// the response value first — the registry lock (inside reg.all) and the
	// per-workload session locks are all released before WriteJSON runs, so
	// a slow client draining the encode stream never holds up registration,
	// eviction or other stats readers.
	writeJSON(rw, http.StatusOK, s.statsSnapshot())
}

// statsSnapshot builds the /v1/stats document from point-in-time counter
// reads and stamps it with the next stats generation.
func (s *Server) statsSnapshot() *wire.StatsResponse {
	workloads := s.reg.all()
	resp := &wire.StatsResponse{
		UptimeSeconds:        time.Since(s.start).Seconds(),
		StatsGeneration:      s.statsGen.Add(1),
		Workloads:            len(workloads),
		Evictions:            s.reg.evictions.Load(),
		EvictionsBytes:       s.reg.evictionsBytes.Load(),
		MaxBytes:             s.opts.MaxBytes,
		SnapshotsLoaded:      s.stateLoaded,
		PersistErrors:        s.persistErrs.Load(),
		DefaultParallelism:   effectiveParallelism(s.opts.Parallelism),
		UnrealizedCandidates: s.unrealizedCands.Load(),
		Requests: wire.RequestStats{
			Register:          s.registers.Load(),
			Check:             s.checks.Load(),
			Subsets:           s.subsets.Load(),
			Certify:           s.certifies.Load(),
			Patch:             s.patches.Load(),
			Coalesced:         s.coalesced.Load(),
			Streamed:          s.streamed.Load(),
			EarlyTerminations: s.earlyTerms.Load(),
		},
	}
	for _, w := range workloads {
		ws := s.workloadStats(w)
		resp.TotalSizeBytes += ws.SizeBytes
		resp.CertifiedCores += ws.Cache.Cores.CertifiedCores
		resp.WorkloadStats = append(resp.WorkloadStats, ws)
	}
	// Registry order is usage-recency; report stats sorted by id so the
	// endpoint is stable under concurrent traffic.
	sort.Slice(resp.WorkloadStats, func(i, j int) bool {
		return resp.WorkloadStats[i].ID < resp.WorkloadStats[j].ID
	})
	return resp
}
