package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// promDoc is a parsed Prometheus text-format scrape: the TYPE of every
// family and the value of every sample line, keyed by the full series
// (name plus rendered labels).
type promDoc struct {
	types   map[string]string
	samples map[string]float64
}

func (d *promDoc) value(t *testing.T, series string) float64 {
	t.Helper()
	v, ok := d.samples[series]
	if !ok {
		t.Fatalf("scrape has no series %q", series)
	}
	return v
}

// parseProm parses (and structurally validates) one text-format exposition:
// every non-comment line must be `series value`, and every sample must
// belong to a family declared by a preceding # TYPE line (histogram samples
// via their _bucket/_sum/_count suffixes).
func parseProm(t *testing.T, text string) *promDoc {
	t.Helper()
	doc := &promDoc{types: make(map[string]string), samples: make(map[string]float64)}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			doc.types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		series := line[:i]
		doc.samples[series] = v
		name := series
		if j := strings.IndexByte(series, '{'); j >= 0 {
			name = series[:j]
		}
		if _, ok := doc.types[name]; ok {
			continue
		}
		// Histogram samples carry a suffix on the family name.
		declared := false
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && doc.types[base] == "histogram" {
				declared = true
				break
			}
		}
		if !declared {
			t.Errorf("sample %q has no TYPE declaration", series)
		}
	}
	return doc
}

func scrape(t *testing.T, ts *httptest.Server) *promDoc {
	t.Helper()
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	return parseProm(t, string(raw))
}

// TestMetricsCoversStatsCounters asserts that every counter /v1/stats
// reports is re-exported on /metrics, alongside the per-endpoint request
// families, the phase histogram and the build attribution.
func TestMetricsCoversStatsCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerSmallBank(t, ts)
	doc := scrape(t, ts)

	families := []string{
		// Requests block of /v1/stats.
		"mvrc_api_requests_total",
		"mvrc_streamed_requests_total", "mvrc_stream_early_terminations_total",
		// Registry / eviction / persistence block.
		"mvrc_workloads", "mvrc_workloads_size_bytes", "mvrc_max_bytes",
		"mvrc_workload_evictions_total", "mvrc_workload_evictions_bytes_total",
		"mvrc_snapshots_loaded", "mvrc_snapshot_persists_total",
		"mvrc_snapshot_persist_errors_total",
		// Robustness block: flusher retry/degradation, overload shedding
		// and recovered panics.
		"mvrc_snapshot_retries_total", "mvrc_snapshot_degraded",
		"mvrc_shed_requests_total", "mvrc_panics_total",
		// Session / block-cache block.
		"mvrc_session_programs", "mvrc_session_unfoldings",
		"mvrc_block_cache_pairs", "mvrc_block_cache_hits_total",
		"mvrc_block_cache_misses_total", "mvrc_block_cache_invalidated_total",
		// Core store block (subsets_pruned and friends).
		"mvrc_core_store_cores", "mvrc_core_store_covers", "mvrc_core_store_size_bytes",
		"mvrc_core_hits_total", "mvrc_cover_hits_total", "mvrc_core_misses_total",
		"mvrc_subsets_pruned_total",
		// Result cache block.
		"mvrc_result_cache_entries", "mvrc_result_cache_hits_total",
		"mvrc_result_cache_misses_total", "mvrc_result_cache_invalidated_total",
		// Observability layer's own series.
		"mvrc_http_requests_total", "mvrc_http_request_errors_total",
		"mvrc_http_in_flight_requests", "mvrc_http_request_duration_seconds",
		"mvrc_phase_duration_seconds", "mvrc_build_info", "mvrc_uptime_seconds",
		"mvrc_stats_generation",
	}
	for _, name := range families {
		if _, ok := doc.types[name]; !ok {
			t.Errorf("/metrics missing family %s", name)
		}
	}
	if doc.value(t, "mvrc_workloads") != 1 {
		t.Errorf("mvrc_workloads = %v, want 1", doc.samples["mvrc_workloads"])
	}
	if doc.value(t, `mvrc_api_requests_total{kind="register"}`) != 1 {
		t.Error("register not counted")
	}
}

// TestMetricsCountersAdvance drives register → check → PATCH → subsets and
// asserts the corresponding counters and latency-histogram sample counts
// advance monotonically between scrapes.
func TestMetricsCountersAdvance(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	// Warm the result cache so the PATCH has something to invalidate.
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets: %d", resp.StatusCode)
	}
	before := scrape(t, ts)

	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("check: %d", resp.StatusCode)
	}
	if resp, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+id+"/programs/DepositChecking",
		&wire.PatchProgramRequest{SQL: patchedDepositChecking}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d\n%s", resp.StatusCode, raw)
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-patch subsets: %d", resp.StatusCode)
	}
	after := scrape(t, ts)

	deltas := map[string]float64{
		`mvrc_api_requests_total{kind="check"}`:                        1,
		`mvrc_api_requests_total{kind="patch"}`:                        1,
		`mvrc_api_requests_total{kind="subsets"}`:                      1,
		`mvrc_http_requests_total{endpoint="check"}`:                   1,
		`mvrc_http_requests_total{endpoint="patch"}`:                   1,
		`mvrc_http_requests_total{endpoint="subsets"}`:                 1,
		`mvrc_http_request_duration_seconds_count{endpoint="check"}`:   1,
		`mvrc_http_request_duration_seconds_count{endpoint="subsets"}`: 1,
		`mvrc_result_cache_invalidated_total`:                          1,
		`mvrc_block_cache_invalidated_total`:                           9,
	}
	for series, want := range deltas {
		if got := after.value(t, series) - before.value(t, series); got != want {
			t.Errorf("%s advanced by %v, want %v", series, got, want)
		}
	}
	// The engine phases ran: compose and detect sample counts advanced.
	for _, phase := range []string{"compose", "detect"} {
		series := `mvrc_phase_duration_seconds_count{phase="` + phase + `"}`
		if after.value(t, series) <= before.value(t, series) {
			t.Errorf("%s did not advance", series)
		}
	}
	// Error counting: a bad request lands in the errors series.
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/nope/check", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload: %d", resp.StatusCode)
	}
	final := scrape(t, ts)
	if final.value(t, `mvrc_http_request_errors_total{endpoint="check"}`) !=
		after.value(t, `mvrc_http_request_errors_total{endpoint="check"}`)+1 {
		t.Error("404 not counted in mvrc_http_request_errors_total")
	}
}

// TestMetricsStreamPhases is the streamed half of the acceptance criterion:
// after one streamed enumeration the phase histogram has samples for
// compose, detect, lattice_level and first_verdict, and the streamed
// request counters advanced.
func TestMetricsStreamPhases(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)
	before := scrape(t, ts)

	resp, err := http.Get(ts.URL + "/v1/workloads/" + id + "/subsets:stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %v", resp.StatusCode, err)
	}
	if !bytes.Contains(body, []byte(`"summary"`)) {
		t.Fatalf("stream did not complete:\n%s", body)
	}

	after := scrape(t, ts)
	for _, phase := range []string{
		obs.PhaseValidateUnfold, obs.PhaseCompose, obs.PhaseDetect,
		obs.PhaseLatticeLevel, obs.PhaseFirstVerdict,
	} {
		series := `mvrc_phase_duration_seconds_count{phase="` + phase + `"}`
		if after.value(t, series) <= before.value(t, series) {
			t.Errorf("%s did not advance over the stream", series)
		}
	}
	if after.value(t, "mvrc_streamed_requests_total") != before.value(t, "mvrc_streamed_requests_total")+1 {
		t.Error("mvrc_streamed_requests_total did not advance")
	}
	if after.value(t, `mvrc_http_requests_total{endpoint="subsets_stream"}`) !=
		before.value(t, `mvrc_http_requests_total{endpoint="subsets_stream"}`)+1 {
		t.Error("subsets_stream endpoint counter did not advance")
	}
}

// TestMetricsConcurrentScrapes hammers /metrics scrapes against streaming
// enumerations; under -race this is the data-race gate for the PreCollect
// registry walk vs. live sessions.
func TestMetricsConcurrentScrapes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, err := http.Get(ts.URL + "/v1/workloads/" + id + "/subsets:stream")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	scrape(t, ts)
}

// TestDebugTimingsCheck asserts ?debug=timings attaches the phase spans of
// that very run to a check response, and that the block is absent without
// the flag.
func TestDebugTimingsCheck(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	var plain wire.CheckResponse
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, &plain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: %d", resp.StatusCode)
	}
	if len(plain.Timings) != 0 || bytes.Contains(raw, []byte(`"timings"`)) {
		t.Error("timings block present without ?debug=timings")
	}

	var timed wire.CheckResponse
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check?debug=timings", nil, &timed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timed check: %d", resp.StatusCode)
	}
	if timed.Robust != plain.Robust {
		t.Error("?debug=timings changed the verdict")
	}
	phases := make(map[string]bool)
	for _, pt := range timed.Timings {
		phases[pt.Phase] = true
		if pt.Count == 0 {
			t.Errorf("phase %s has zero count", pt.Phase)
		}
	}
	for _, want := range []string{obs.PhaseCompose, obs.PhaseDetect} {
		if !phases[want] {
			t.Errorf("timings missing phase %s (got %v)", want, timed.Timings)
		}
	}
}

// TestDebugTimingsSubsetsBypassesCache asserts a timed subsets request
// bypasses the result cache in both directions: it is not answered from
// stored bytes (its timings are this run's), and it does not disturb the
// stored entry.
func TestDebugTimingsSubsetsBypassesCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	// Fill (miss) and replay (hit) the cache.
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil)
	_, cached := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil)

	var timed wire.SubsetsResponse
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets?debug=timings", nil, &timed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timed subsets: %d", resp.StatusCode)
	}
	if len(timed.Timings) == 0 {
		t.Fatal("timed subsets response has no timings block")
	}
	phases := make(map[string]bool)
	for _, pt := range timed.Timings {
		phases[pt.Phase] = true
	}
	if !phases[obs.PhaseLatticeLevel] {
		t.Errorf("subsets timings missing lattice_level: %v", timed.Timings)
	}

	// The stored entry is untouched: the next plain request replays the
	// same bytes, and the cache saw exactly one miss and two hits (none
	// from the timed request).
	_, replay := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil)
	if !bytes.Equal(cached, replay) {
		t.Error("timed request disturbed the cached bytes")
	}
	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st)
	rc := st.WorkloadStats[0].ResultCache
	if rc.Misses != 1 || rc.Hits != 2 || rc.Entries != 1 {
		t.Errorf("result cache = %+v, want 1 miss / 2 hits / 1 entry (timed request must bypass)", rc)
	}
}

// TestHealthzBuildInfo asserts /healthz carries the build attribution and
// uptime of the version satellite.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var hz wire.HealthzResponse
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &hz)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d\n%s", resp.StatusCode, raw)
	}
	if hz.Status != "ok" || hz.Version == "" || hz.Revision == "" || hz.GoVersion == "" {
		t.Errorf("healthz = %+v, want ok + full build info", hz)
	}
	if hz.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", hz.UptimeSeconds)
	}
}

// TestStatsGeneration asserts the stats_generation satellite: strictly
// monotonic across responses, mirrored on /metrics.
func TestStatsGeneration(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var st1, st2 wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st1)
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st2)
	if st1.StatsGeneration == 0 || st2.StatsGeneration <= st1.StatsGeneration {
		t.Errorf("stats_generation = %d then %d, want strictly increasing from 1",
			st1.StatsGeneration, st2.StatsGeneration)
	}
	doc := scrape(t, ts)
	if doc.value(t, "mvrc_stats_generation") != float64(st2.StatsGeneration) {
		t.Errorf("mvrc_stats_generation = %v, want %d",
			doc.samples["mvrc_stats_generation"], st2.StatsGeneration)
	}
}

// TestRequestIDPropagation asserts the middleware honors an incoming
// X-Request-ID and mints distinct ones otherwise.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-7" {
		t.Errorf("echoed request id = %q, want caller-chosen-7", got)
	}

	ids := make(map[string]bool)
	for i := 0; i < 2; i++ {
		resp, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
		_ = raw
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("no X-Request-ID minted")
		}
		ids[id] = true
	}
	if len(ids) != 2 {
		t.Errorf("minted ids not unique: %v", ids)
	}
}

// TestMetricsCertify asserts the certification series: the certify request
// counters advance, the session-level certified-core gauge follows the
// provenance bit, and the unrealized-candidates counter stays at zero for
// a realizable core.
func TestMetricsCertify(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)
	before := scrape(t, ts)
	for _, name := range []string{"mvrc_certified_cores", "mvrc_unrealized_candidates_total"} {
		if _, ok := before.types[name]; !ok {
			t.Errorf("/metrics missing family %s", name)
		}
	}

	var cr wire.CertifyResponse
	if resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal", "Am"}}}, &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: %d\n%s", resp.StatusCode, raw)
	}
	if cr.Status != "certified" {
		t.Fatalf("certify status = %q, want certified", cr.Status)
	}

	after := scrape(t, ts)
	deltas := map[string]float64{
		`mvrc_api_requests_total{kind="certify"}`:                      1,
		`mvrc_http_requests_total{endpoint="certify"}`:                 1,
		`mvrc_http_request_duration_seconds_count{endpoint="certify"}`: 1,
		`mvrc_certified_cores`:                                         1,
		`mvrc_unrealized_candidates_total`:                             0,
	}
	for series, want := range deltas {
		if got := after.value(t, series) - before.value(t, series); got != want {
			t.Errorf("%s advanced by %v, want %v", series, got, want)
		}
	}
}

// TestStatsMetricsParity: /v1/stats and /metrics render one telemetry
// source, so after a fixed request script every /v1/stats counter with a
// /metrics twin reads the same on both — the per-workload session and
// result-cache blocks summed, the core store's cores and covers included.
func TestStatsMetricsParity(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sb := registerSmallBank(t, ts)
	var reg wire.RegisterWorkloadResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "tpcc"}, &reg)
	for _, id := range []string{sb, reg.ID} {
		if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("subsets: %d", resp.StatusCode)
		}
		resp, err := http.Get(ts.URL + "/v1/workloads/" + id + "/subsets:stream?mode=first_non_robust")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("check: %d", resp.StatusCode)
		}
	}
	if resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+sb+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal", "Am"}}, MaxSchedules: 1000}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: %d\n%s", resp.StatusCode, raw)
	}
	if resp, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+sb+"/programs/DepositChecking",
		&wire.PatchProgramRequest{SQL: patchedDepositChecking}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d\n%s", resp.StatusCode, raw)
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+sb+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-patch subsets: %d", resp.StatusCode)
	}

	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st)
	doc := scrape(t, ts)
	var cache wire.CacheStats
	var results wire.ResultCacheStats
	for _, ws := range st.WorkloadStats {
		cache.Programs += ws.Cache.Programs
		cache.Unfoldings += ws.Cache.Unfoldings
		cache.Pairs += ws.Cache.Pairs
		cache.Hits += ws.Cache.Hits
		cache.Misses += ws.Cache.Misses
		cache.Invalidated += ws.Cache.Invalidated
		cache.Cores.Cores += ws.Cache.Cores.Cores
		cache.Cores.Covers += ws.Cache.Cores.Covers
		cache.Cores.CertifiedCores += ws.Cache.Cores.CertifiedCores
		cache.Cores.Hits += ws.Cache.Cores.Hits
		cache.Cores.CoverHits += ws.Cache.Cores.CoverHits
		cache.Cores.Misses += ws.Cache.Cores.Misses
		cache.Cores.SubsetsPruned += ws.Cache.Cores.SubsetsPruned
		cache.Cores.SizeBytes += ws.Cache.Cores.SizeBytes
		results.Entries += ws.ResultCache.Entries
		results.Hits += ws.ResultCache.Hits
		results.Misses += ws.ResultCache.Misses
		results.Invalidated += ws.ResultCache.Invalidated
	}
	if cache.Cores.Cores == 0 || cache.Cores.Covers == 0 || cache.Cores.CertifiedCores == 0 || results.Invalidated == 0 {
		t.Fatalf("script left the compared blocks empty: cache %+v, results %+v", cache, results)
	}
	twins := map[string]float64{
		"mvrc_stats_generation":                    float64(st.StatsGeneration),
		"mvrc_workloads":                           float64(st.Workloads),
		"mvrc_workloads_size_bytes":                float64(st.TotalSizeBytes),
		"mvrc_max_bytes":                           float64(st.MaxBytes),
		"mvrc_workload_evictions_total":            float64(st.Evictions),
		"mvrc_workload_evictions_bytes_total":      float64(st.EvictionsBytes),
		"mvrc_snapshots_loaded":                    float64(st.SnapshotsLoaded),
		"mvrc_snapshot_persist_errors_total":       float64(st.PersistErrors),
		"mvrc_unrealized_candidates_total":         float64(st.UnrealizedCandidates),
		"mvrc_certified_cores":                     float64(st.CertifiedCores),
		`mvrc_api_requests_total{kind="register"}`: float64(st.Requests.Register),
		`mvrc_api_requests_total{kind="check"}`:    float64(st.Requests.Check),
		`mvrc_api_requests_total{kind="subsets"}`:  float64(st.Requests.Subsets),
		`mvrc_api_requests_total{kind="certify"}`:  float64(st.Requests.Certify),
		`mvrc_api_requests_total{kind="patch"}`:    float64(st.Requests.Patch),
		"mvrc_streamed_requests_total":             float64(st.Requests.Streamed),
		"mvrc_stream_early_terminations_total":     float64(st.Requests.EarlyTerminations),
		"mvrc_session_programs":                    float64(cache.Programs),
		"mvrc_session_unfoldings":                  float64(cache.Unfoldings),
		"mvrc_block_cache_pairs":                   float64(cache.Pairs),
		"mvrc_block_cache_hits_total":              float64(cache.Hits),
		"mvrc_block_cache_misses_total":            float64(cache.Misses),
		"mvrc_block_cache_invalidated_total":       float64(cache.Invalidated),
		"mvrc_core_store_cores":                    float64(cache.Cores.Cores),
		"mvrc_core_store_covers":                   float64(cache.Cores.Covers),
		"mvrc_core_store_size_bytes":               float64(cache.Cores.SizeBytes),
		"mvrc_core_hits_total":                     float64(cache.Cores.Hits),
		"mvrc_cover_hits_total":                    float64(cache.Cores.CoverHits),
		"mvrc_core_misses_total":                   float64(cache.Cores.Misses),
		"mvrc_subsets_pruned_total":                float64(cache.Cores.SubsetsPruned),
		"mvrc_result_cache_entries":                float64(results.Entries),
		"mvrc_result_cache_hits_total":             float64(results.Hits),
		"mvrc_result_cache_misses_total":           float64(results.Misses),
		"mvrc_result_cache_invalidated_total":      float64(results.Invalidated),
	}
	for series, want := range twins {
		if got := doc.value(t, series); got != want {
			t.Errorf("%s = %v on /metrics, %v on /v1/stats", series, got, want)
		}
	}
	if want := float64(cache.Cores.CertifiedCores); doc.value(t, "mvrc_certified_cores") != want {
		t.Errorf("top-level certified_cores %d differs from the summed workload blocks %v", st.CertifiedCores, want)
	}
}
