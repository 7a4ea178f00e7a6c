package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// This file is the server's observability surface: the Prometheus metric
// registry behind GET /metrics (re-exporting every /v1/stats counter plus
// per-endpoint request counts, in-flight gauges and latency histograms and
// the engine's phase-span histogram), the per-handler instrumentation
// middleware (request counting, X-Request-ID propagation, slog access
// logs), and the per-request tracer assembly (metrics histogram + optional
// debug phase logs + optional ?debug=timings recorder).
//
// Everything here is built on internal/obs — plain atomics behind
// pre-registered handles — so a scrape never blocks a request and a request
// never allocates for a metric update.

// endpoint labels of the instrumented routes; also the series set of the
// mvrc_http_* families.
const (
	epHealthz       = "healthz"
	epLive          = "live"
	epReady         = "ready"
	epMetrics       = "metrics"
	epStats         = "stats"
	epRegister      = "register"
	epFromSQL       = "from_sql"
	epWorkload      = "workload"
	epCheck         = "check"
	epSubsets       = "subsets"
	epSubsetsStream = "subsets_stream"
	epCertify       = "certify"
	epPatch         = "patch"
)

var endpointNames = []string{
	epHealthz, epLive, epReady, epMetrics, epStats, epRegister, epFromSQL,
	epWorkload, epCheck, epSubsets, epSubsetsStream, epCertify, epPatch,
}

// phaseNames is the fixed span taxonomy exported as
// mvrc_phase_duration_seconds{phase=...}; see internal/obs and the
// "Observability" section of docs/ARCHITECTURE.md.
var phaseNames = []string{
	obs.PhaseValidateUnfold, obs.PhasePairs, obs.PhaseCompose,
	obs.PhaseDetect, obs.PhaseLatticeLevel, obs.PhaseFirstVerdict,
	obs.PhaseFlush,
}

// endpointMetrics is one endpoint's request telemetry.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	inflight *obs.Gauge
	latency  *obs.Histogram
}

// aggregates is the per-scrape snapshot of everything that lives inside the
// workload registry: the /v1/stats document's workload count and size, and
// its per-workload session and result-cache blocks summed. One PreCollect
// call fills it; the registered Func series read fields from the snapshot
// instead of walking the registry once per series.
type aggregates struct {
	workloads int
	totalSize int64
	cache     wire.CacheStats
	results   wire.ResultCacheStats
}

// metrics owns the server's obs.Registry and the handles updated on the hot
// paths. It doubles as the shared phase tracer: Span observes into the
// phase histogram map, which is read-only after construction, so one
// *metrics value serves every concurrent request without per-request
// allocation.
type metrics struct {
	srv *Server
	reg *obs.Registry

	endpoints map[string]*endpointMetrics
	phase     map[string]*obs.Histogram

	mu  sync.Mutex
	agg aggregates
}

// Span implements obs.Tracer: one histogram observation per phase span,
// from a request's tracer or from the snapshot flusher, whose spans belong
// to no single request. Unknown phases are dropped (the map is fixed at
// startup; dropping beats allocating a series from an unvalidated string).
func (m *metrics) Span(phase string, d time.Duration) {
	if h, ok := m.phase[phase]; ok {
		h.ObserveDuration(d)
	}
}

// collect is the PreCollect hook: it sums the per-workload blocks of the
// same statsSnapshot /v1/stats serves, so the two endpoints cannot drift,
// and publishes the sums under the snapshot mutex.
func (m *metrics) collect() {
	st := m.srv.statsSnapshot()
	a := aggregates{workloads: st.Workloads, totalSize: st.TotalSizeBytes}
	c, r := &a.cache, &a.results
	for _, ws := range st.WorkloadStats {
		w := ws.Cache
		c.Programs += w.Programs
		c.Unfoldings += w.Unfoldings
		c.Pairs += w.Pairs
		c.Hits += w.Hits
		c.Misses += w.Misses
		c.Invalidated += w.Invalidated
		c.Cores.Cores += w.Cores.Cores
		c.Cores.Covers += w.Cores.Covers
		c.Cores.CertifiedCores += w.Cores.CertifiedCores
		c.Cores.Hits += w.Cores.Hits
		c.Cores.CoverHits += w.Cores.CoverHits
		c.Cores.Misses += w.Cores.Misses
		c.Cores.SubsetsPruned += w.Cores.SubsetsPruned
		c.Cores.SizeBytes += w.Cores.SizeBytes
		r.Entries += ws.ResultCache.Entries
		r.Hits += ws.ResultCache.Hits
		r.Misses += ws.ResultCache.Misses
		r.Invalidated += ws.ResultCache.Invalidated
	}
	m.mu.Lock()
	m.agg = a
	m.mu.Unlock()
}

func (m *metrics) snap() aggregates {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.agg
}

// newMetrics builds the registry: static build attribution, per-endpoint
// request families, the phase histogram, direct re-exports of the server's
// request atomics, and PreCollect-backed aggregates of the registry's
// cache telemetry. Series registration happens once, here — the hot paths
// only touch returned handles.
func newMetrics(s *Server) *metrics {
	m := &metrics{
		srv:       s,
		reg:       obs.NewRegistry(),
		endpoints: make(map[string]*endpointMetrics, len(endpointNames)),
		phase:     make(map[string]*obs.Histogram, len(phaseNames)),
	}
	r := m.reg
	r.PreCollect(m.collect)

	bi := obs.Build()
	r.GaugeFunc("mvrc_build_info",
		"Build attribution; the value is always 1, the labels carry the build.",
		func() float64 { return 1 },
		obs.Label{Key: "version", Value: bi.Version},
		obs.Label{Key: "revision", Value: bi.Revision},
		obs.Label{Key: "goversion", Value: bi.GoVersion})
	r.GaugeFunc("mvrc_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.CounterFunc("mvrc_stats_generation",
		"Monotonic /v1/stats response counter (resets on restart).",
		func() float64 { return float64(s.statsGen.Load()) })

	for _, ep := range endpointNames {
		lbl := obs.Label{Key: "endpoint", Value: ep}
		m.endpoints[ep] = &endpointMetrics{
			requests: r.Counter("mvrc_http_requests_total",
				"HTTP requests served, by endpoint.", lbl),
			errors: r.Counter("mvrc_http_request_errors_total",
				"HTTP responses with status >= 400, by endpoint.", lbl),
			inflight: r.Gauge("mvrc_http_in_flight_requests",
				"Requests currently being served, by endpoint.", lbl),
			latency: r.Histogram("mvrc_http_request_duration_seconds",
				"Request latency, by endpoint.", obs.DefBuckets, lbl),
		}
	}
	for _, ph := range phaseNames {
		m.phase[ph] = r.Histogram("mvrc_phase_duration_seconds",
			"Engine phase spans: validate_unfold, pairs (Algorithm 1, a sub-span of compose), compose, detect, lattice_level, first_verdict, snapshot_flush.",
			obs.PhaseBuckets, obs.Label{Key: "phase", Value: ph})
	}

	// Direct re-exports of the /v1/stats request counters.
	for _, c := range []struct {
		kind string
		v    *counterRef
	}{
		{"register", counterOf(&s.registers)},
		{"check", counterOf(&s.checks)},
		{"subsets", counterOf(&s.subsets)},
		{"certify", counterOf(&s.certifies)},
		{"patch", counterOf(&s.patches)},
	} {
		v := c.v
		r.CounterFunc("mvrc_api_requests_total",
			"API requests by kind, as counted by /v1/stats.",
			v.load, obs.Label{Key: "kind", Value: c.kind})
	}
	r.CounterFunc("mvrc_streamed_requests_total",
		"subsets:stream requests served.",
		counterOf(&s.streamed).load)
	r.CounterFunc("mvrc_stream_early_terminations_total",
		"Streams stopped early by mode or budget (not client disconnects).",
		counterOf(&s.earlyTerms).load)

	// Registry, eviction and persistence telemetry.
	r.GaugeFunc("mvrc_workloads", "Registered workloads resident in the registry.",
		func() float64 { return float64(m.snap().workloads) })
	r.GaugeFunc("mvrc_workloads_size_bytes",
		"Estimated resident bytes across all workloads (the -max-bytes quantity).",
		func() float64 { return float64(m.snap().totalSize) })
	r.GaugeFunc("mvrc_max_bytes", "The -max-bytes budget (0 = unlimited).",
		func() float64 { return float64(s.opts.MaxBytes) })
	r.CounterFunc("mvrc_workload_evictions_total",
		"Workloads evicted by the count-based LRU cap.",
		counterOf(&s.reg.evictions).load)
	r.CounterFunc("mvrc_workload_evictions_bytes_total",
		"Workloads evicted by the -max-bytes policy.",
		counterOf(&s.reg.evictionsBytes).load)
	r.GaugeFunc("mvrc_snapshots_loaded", "Workloads restored from -state-dir at boot.",
		func() float64 { return float64(s.stateLoaded) })
	r.CounterFunc("mvrc_snapshot_persists_total", "Completed snapshot writes.",
		counterOf(&s.persists).load)
	r.CounterFunc("mvrc_snapshot_persist_errors_total", "Failed snapshot writes.",
		counterOf(&s.persistErrs).load)
	r.CounterFunc("mvrc_snapshot_retries_total",
		"Snapshot writes re-attempted after a failed persist of the same workload.",
		counterOf(&s.snapRetries).load)
	r.GaugeFunc("mvrc_snapshot_degraded",
		"1 while the flusher is in degraded-persistence mode (consecutive failed flush rounds; retrying with backoff).",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	r.CounterFunc("mvrc_shed_requests_total",
		"Analysis requests rejected with 429 at the -max-concurrent-checks admission gate.",
		counterOf(&s.shed).load)
	r.CounterFunc("mvrc_panics_total",
		"Recovered panics: HTTP handlers plus engine worker goroutines.",
		counterOf(&s.panics).load)

	// Session-cache aggregates (PreCollect sums the /v1/stats snapshot once
	// per scrape; these read the sums).
	r.GaugeFunc("mvrc_session_programs", "Validated programs across sessions.",
		func() float64 { return float64(m.snap().cache.Programs) })
	r.GaugeFunc("mvrc_session_unfoldings", "Memoized (program, bound) unfoldings.",
		func() float64 { return float64(m.snap().cache.Unfoldings) })
	r.GaugeFunc("mvrc_block_cache_pairs", "Cached pairwise edge blocks (Algorithm 1).",
		func() float64 { return float64(m.snap().cache.Pairs) })
	r.CounterFunc("mvrc_block_cache_hits_total", "Block-cache hits.",
		func() float64 { return float64(m.snap().cache.Hits) })
	r.CounterFunc("mvrc_block_cache_misses_total", "Block-cache misses (pairs computed).",
		func() float64 { return float64(m.snap().cache.Misses) })
	r.CounterFunc("mvrc_block_cache_invalidated_total", "Block-cache pairs evicted by PATCH.",
		func() float64 { return float64(m.snap().cache.Invalidated) })
	r.GaugeFunc("mvrc_core_store_cores", "Stored minimal non-robust cores.",
		func() float64 { return float64(m.snap().cache.Cores.Cores) })
	r.GaugeFunc("mvrc_core_store_covers", "Stored robust covers.",
		func() float64 { return float64(m.snap().cache.Cores.Covers) })
	r.GaugeFunc("mvrc_certified_cores",
		"Stored minimal non-robust cores backed by a replayed non-serializable execution.",
		func() float64 { return float64(m.snap().cache.Cores.CertifiedCores) })
	r.CounterFunc("mvrc_unrealized_candidates_total",
		"Candidate instantiations searched by certify requests without finding a counterexample.",
		counterOf(&s.unrealizedCands).load)
	r.GaugeFunc("mvrc_core_store_size_bytes", "Estimated core/cover store bytes.",
		func() float64 { return float64(m.snap().cache.Cores.SizeBytes) })
	r.CounterFunc("mvrc_core_hits_total", "Subsets decided non-robust by core containment.",
		func() float64 { return float64(m.snap().cache.Cores.Hits) })
	r.CounterFunc("mvrc_cover_hits_total", "Subsets decided robust by cover containment.",
		func() float64 { return float64(m.snap().cache.Cores.CoverHits) })
	r.CounterFunc("mvrc_core_misses_total", "Subsets that ran the cycle detector.",
		func() float64 { return float64(m.snap().cache.Cores.Misses) })
	r.CounterFunc("mvrc_subsets_pruned_total",
		"Detector runs skipped by containment (core hits + cover hits).",
		func() float64 { return float64(m.snap().cache.Cores.SubsetsPruned) })
	r.GaugeFunc("mvrc_result_cache_entries", "Cached subsets responses.",
		func() float64 { return float64(m.snap().results.Entries) })
	r.CounterFunc("mvrc_result_cache_hits_total", "Result-cache hits (stored-bytes replays).",
		func() float64 { return float64(m.snap().results.Hits) })
	r.CounterFunc("mvrc_result_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(m.snap().results.Misses) })
	r.CounterFunc("mvrc_result_cache_invalidated_total",
		"Result-cache entries dropped by PATCH version bumps.",
		func() float64 { return float64(m.snap().results.Invalidated) })
	return m
}

// counterRef adapts an *atomic.Uint64 to the CounterFunc signature without
// a closure per call site littering the registration code.
type counterRef struct{ v *atomic.Uint64 }

func (c *counterRef) load() float64 { return float64(c.v.Load()) }

func counterOf(v *atomic.Uint64) *counterRef { return &counterRef{v: v} }

// --- Request instrumentation ------------------------------------------------

// statusWriter records the response status for the request counter and the
// access log, and whether the response has started (wrote) — the panic
// recovery can only substitute a structured 500 while the status line is
// still unsent. It deliberately implements http.Flusher unconditionally —
// handleSubsetsStream flushes after every NDJSON line, and wrapping the
// ResponseWriter must not sever that path.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle registers a route through the instrumentation middleware: request
// ID propagation, in-flight gauge, latency histogram, error counting,
// panic recovery and the slog access log when Options.Logger is set.
//
// The accounting lives in a defer so a panicking handler is still counted,
// logged and timed before the panic continues. net/http would recover a
// handler panic anyway, but only by dropping the connection with a stack
// dump to stderr; here the client gets a structured 500 (when the response
// has not started), the panic lands in mvrc_panics_total, and the stack
// goes to the structured log.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	em := s.metrics.endpoints[endpoint]
	s.mux.HandleFunc(pattern, func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = s.nextRequestID()
		}
		r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
		rw.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: rw, status: http.StatusOK}
		em.inflight.Add(1)
		defer func() {
			p := recover()
			abort := p == http.ErrAbortHandler
			if p != nil && !abort {
				s.panics.Add(1)
				if s.logger != nil {
					s.logger.LogAttrs(r.Context(), slog.LevelError, "handler_panic",
						slog.Any("value", p),
						slog.String("stack", string(debug.Stack())),
						slog.String("endpoint", endpoint),
						slog.String("request_id", reqID))
				}
				if sw.wrote {
					// The response already started; nothing coherent can be
					// appended. Record the failure and abort the connection
					// so the client sees a truncated response, not a
					// silently complete-looking one.
					sw.status = http.StatusInternalServerError
					abort = true
				} else {
					writeJSON(sw, http.StatusInternalServerError,
						wire.Error{Error: "internal server error", Code: "panic"})
				}
			}
			em.inflight.Add(-1)
			d := time.Since(start)
			em.requests.Inc()
			if sw.status >= 400 {
				em.errors.Inc()
			}
			em.latency.ObserveDuration(d)
			if s.logger != nil {
				s.logger.LogAttrs(r.Context(), slog.LevelInfo, "http_request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("endpoint", endpoint),
					slog.Int("status", sw.status),
					slog.Duration("duration", d),
					slog.String("request_id", reqID))
			}
			if abort {
				// net/http treats ErrAbortHandler as a deliberate abort:
				// the connection closes without the default stack dump.
				panic(http.ErrAbortHandler)
			}
		}()
		h(sw, r)
	})
}

// nextRequestID mints a process-unique request ID for requests that arrive
// without an X-Request-ID header: a per-boot prefix (derived from the start
// time, so IDs never collide across restarts) plus a sequence number.
func (s *Server) nextRequestID() string {
	return s.reqPrefix + strconv.FormatUint(s.reqSeq.Add(1), 36)
}

// requestTracer assembles the per-request tracer for the analysis handlers:
// always the shared metrics histogram (one pointer, no allocation); plus a
// per-span debug log when the logger has debug enabled; plus a SpanRecorder
// when the request opted into ?debug=timings — the recorder is returned so
// the handler can attach the snapshot to its response.
func (s *Server) requestTracer(r *http.Request) (obs.Tracer, *obs.SpanRecorder) {
	var tr obs.Tracer = s.metrics
	if s.logger != nil && s.logger.Enabled(r.Context(), slog.LevelDebug) {
		tr = &logTracer{next: tr, log: s.logger, reqID: obs.RequestIDFrom(r.Context())}
	}
	if r.URL.Query().Get("debug") == "timings" {
		rec := obs.NewSpanRecorder()
		return obs.Multi(tr, rec), rec
	}
	return tr, nil
}

// logTracer forwards spans to the metrics histogram and logs each one at
// debug level with the propagated request ID.
type logTracer struct {
	next  obs.Tracer
	log   *slog.Logger
	reqID string
}

func (t *logTracer) Span(phase string, d time.Duration) {
	t.next.Span(phase, d)
	t.log.LogAttrs(context.Background(), slog.LevelDebug, "phase",
		slog.String("phase", phase),
		slog.Duration("duration", d),
		slog.String("request_id", t.reqID))
}
