package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/faultfs"
	"repro/internal/wire"
)

// This file tests the robustness hardening of the server itself: admission
// control (overload shedding with 429 + Retry-After), panic recovery in the
// HTTP middleware, the liveness/readiness
// split with drain semantics, and the degraded-persistence lifecycle under
// injected filesystem faults (retry with backoff, degraded health, recovery,
// and the shutdown flush's loss report).

// TestRequestTimeoutNormalization pins the Options semantics: zero means
// DefaultRequestTimeout (every request runs under a deadline unless the
// operator opts out), negative means no server-side deadline.
func TestRequestTimeoutNormalization(t *testing.T) {
	for _, tc := range []struct {
		in, want time.Duration
	}{
		{0, DefaultRequestTimeout},
		{-1, 0},
		{5 * time.Second, 5 * time.Second},
	} {
		s := New(Options{RequestTimeout: tc.in})
		if s.opts.RequestTimeout != tc.want {
			t.Errorf("RequestTimeout %v normalized to %v, want %v", tc.in, s.opts.RequestTimeout, tc.want)
		}
		s.Close()
	}
}

// decodeError decodes the uniform error envelope.
func decodeError(t *testing.T, raw []byte) wire.Error {
	t.Helper()
	var e wire.Error
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decode error envelope: %v\n%s", err, raw)
	}
	return e
}

// TestOverloadShedding saturates a MaxConcurrentChecks=1 server with one
// blocked enumeration and asserts that every further analysis request is
// shed with 429 + Retry-After + {"code": "overloaded"} while control-plane
// routes keep answering, that the in-flight request completes normally once
// unblocked, and that capacity is released afterwards.
func TestOverloadShedding(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrentChecks: 1})
	id := registerSmallBank(t, ts)

	started := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	s.testSubsetsHook = func() {
		close(started)
		<-release
	}

	leader := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/workloads/"+id+"/subsets", "application/json",
			strings.NewReader(`{"programs": ["Bal", "Am"]}`))
		if err != nil {
			leader <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		leader <- resp.StatusCode
	}()
	<-started // the only admission slot is now held by the blocked enumeration

	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/workloads/" + id + "/check"},
		{http.MethodPost, "/v1/workloads/" + id + "/subsets"},
		{http.MethodGet, "/v1/workloads/" + id + "/subsets:stream?mode=first_non_robust"},
		{http.MethodPost, "/v1/workloads/" + id + "/certify"},
	} {
		resp, raw := doJSON(t, probe.method, ts.URL+probe.path, nil, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s %s under saturation: %d, want 429\n%s", probe.method, probe.path, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("%s Retry-After = %q, want \"1\"", probe.path, got)
		}
		e := decodeError(t, raw)
		if e.Code != "overloaded" || e.RetryAfterSeconds != 1 {
			t.Errorf("%s shed body = %+v, want code overloaded retry_after 1", probe.path, e)
		}
	}

	// Control-plane routes are never shed.
	for _, path := range []string{"/healthz", "/healthz/ready", "/v1/stats", "/v1/workloads/" + id} {
		if resp, raw := doJSON(t, http.MethodGet, ts.URL+path, nil, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s under saturation: %d, want 200\n%s", path, resp.StatusCode, raw)
		}
	}
	if got := s.shed.Load(); got < 4 {
		t.Errorf("shed counter = %d, want >= 4", got)
	}

	releaseOnce.Do(func() { close(release) })
	if status := <-leader; status != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200 (overload must not cancel admitted work)", status)
	}
	// The slot is free again: a fresh analysis request is admitted.
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check",
		&wire.CheckRequest{Programs: []string{"Bal"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release check: %d, want 200\n%s", resp.StatusCode, raw)
	}
}

// TestSubsetsRejectTooManyPrograms: both subsets endpoints refuse a
// selection larger than analysis.MaxSubsetPrograms with the same
// structured 400 — and refuse it before admission, so the answer is the
// same while the only analysis slot is held and the refusal is never
// counted as shed load.
func TestSubsetsRejectTooManyPrograms(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrentChecks: 1})
	var reg wire.RegisterWorkloadResponse
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "auction", N: 11}, &reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register auction n=11: %d\n%s", resp.StatusCode, raw)
	}
	probe := func(phase string) {
		t.Helper()
		for _, p := range []struct{ method, path string }{
			{http.MethodPost, "/subsets"},
			{http.MethodGet, "/subsets:stream"},
			{http.MethodPost, "/subsets:stream"},
		} {
			resp, raw := doJSON(t, p.method, ts.URL+"/v1/workloads/"+reg.ID+p.path, nil, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: %s %s over 22 programs: %d, want 400\n%s", phase, p.method, p.path, resp.StatusCode, raw)
			}
			e := decodeError(t, raw)
			want := fmt.Sprintf("subset enumeration over 22 programs exceeds the limit of %d", analysis.MaxSubsetPrograms)
			if e.Code != "too_many_programs" || e.Error != want {
				t.Errorf("%s: %s %s body = %+v, want code too_many_programs and %q", phase, p.method, p.path, e, want)
			}
		}
	}
	probe("idle")

	// Hold the only admission slot with a blocked SmallBank enumeration.
	release := holdAdmission(t, s, ts, registerSmallBank(t, ts))
	probe("saturated")
	if n := s.shed.Load(); n != 0 {
		t.Errorf("over-limit requests were shed (%d) instead of rejected before admission", n)
	}
	release()
}

// holdAdmission parks one subsets enumeration of workload id after
// admission, holding its slot until the returned release is called;
// release waits for the parked request to finish 200.
func holdAdmission(t *testing.T, s *Server, ts *httptest.Server, id string) (release func()) {
	t.Helper()
	started := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(unblock) }) })
	s.testSubsetsHook = func() {
		close(started)
		<-unblock
	}
	leader := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/workloads/"+id+"/subsets", "application/json", nil)
		if err != nil {
			leader <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		leader <- resp.StatusCode
	}()
	<-started
	return func() {
		t.Helper()
		once.Do(func() { close(unblock) })
		if status := <-leader; status != http.StatusOK {
			t.Fatalf("held enumeration finished %d, want 200", status)
		}
	}
}

// TestUnfoldBoundLimit: every endpoint that takes a CheckRequest refuses an
// unfold_bound above btp.MaxUnfoldBound with a structured 400 — before
// admission, so the answer is the same while the only analysis slot is held
// and nothing is shed — and accepts the limit itself.
func TestUnfoldBoundLimit(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrentChecks: 1})
	id := registerSmallBank(t, ts)
	base := ts.URL + "/v1/workloads/" + id
	over := btp.MaxUnfoldBound + 1
	type probe struct {
		method, url string
		body        any
	}
	probes := func(bound int) []probe {
		req := wire.CheckRequest{UnfoldBound: bound, Programs: []string{"Bal", "DC"}}
		return []probe{
			{http.MethodPost, base + "/check", &req},
			{http.MethodPost, base + "/subsets", &req},
			{http.MethodPost, base + "/subsets:stream", &wire.StreamRequest{CheckRequest: req}},
			{http.MethodGet, base + fmt.Sprintf("/subsets:stream?unfold_bound=%d", bound), nil},
			{http.MethodPost, base + "/certify", &wire.CertifyRequest{CheckRequest: req}},
		}
	}
	refuse := func(phase string) {
		t.Helper()
		for _, p := range probes(over) {
			resp, raw := doJSON(t, p.method, p.url, p.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: %s %s with bound %d: %d, want 400\n%s", phase, p.method, p.url, over, resp.StatusCode, raw)
			}
			want := fmt.Sprintf("unfold_bound %d exceeds the limit of %d", over, btp.MaxUnfoldBound)
			if e := decodeError(t, raw); e.Code != "unfold_bound_too_large" || e.Error != want {
				t.Errorf("%s: %s %s body = %+v, want code unfold_bound_too_large and %q", phase, p.method, p.url, e, want)
			}
		}
	}
	refuse("idle")
	for _, p := range probes(btp.MaxUnfoldBound) {
		if resp, raw := doJSON(t, p.method, p.url, p.body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s with bound %d: %d, want 200\n%s", p.method, p.url, btp.MaxUnfoldBound, resp.StatusCode, raw)
		}
	}

	release := holdAdmission(t, s, ts, id)
	refuse("saturated")
	if n := s.shed.Load(); n != 0 {
		t.Errorf("over-limit requests were shed (%d) instead of refused before admission", n)
	}
	release()
}

// TestUnfoldBoundDefaultSpellings: 0 and every negative unfold_bound mean
// the default bound, so they share one result-cache entry — a client
// counting down cannot grow the cache (or the snapshot) one entry per
// spelling.
func TestUnfoldBoundDefaultSpellings(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)
	var bodies [][]byte
	for _, bound := range []int{0, -1, -7} {
		resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets",
			&wire.CheckRequest{UnfoldBound: bound}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unfold_bound %d: %d\n%s", bound, resp.StatusCode, raw)
		}
		bodies = append(bodies, raw)
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("body %d differs from the unfold_bound 0 body:\n%s\nvs\n%s", i+1, b, bodies[0])
		}
	}
	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st)
	if rc := st.WorkloadStats[0].ResultCache; rc.Entries != 1 || rc.Hits != 2 {
		t.Errorf("result cache = %+v, want 1 entry / 2 hits", rc)
	}
}

// TestMaxSchedulesLimit: /certify refuses a max_schedules above
// certify.MaxRequestSchedules with a structured 400 — before admission, so
// the answer is the same while the only analysis slot is held and nothing
// is shed — and certifies with the limit itself.
func TestMaxSchedulesLimit(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrentChecks: 1})
	id := registerSmallBank(t, ts)
	url := ts.URL + "/v1/workloads/" + id + "/certify"
	request := func(budget int) *wire.CertifyRequest {
		return &wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal", "Am"}}, MaxSchedules: budget}
	}

	var atLimit wire.CertifyResponse
	resp, raw := doJSON(t, http.MethodPost, url, request(certify.MaxRequestSchedules), &atLimit)
	if resp.StatusCode != http.StatusOK || atLimit.Status != "certified" {
		t.Fatalf("max_schedules %d: %d, want 200 certified\n%s", certify.MaxRequestSchedules, resp.StatusCode, raw)
	}

	release := holdAdmission(t, s, ts, id)
	over := certify.MaxRequestSchedules + 1
	resp, raw = doJSON(t, http.MethodPost, url, request(over), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("max_schedules %d with the only slot held: %d, want 400\n%s", over, resp.StatusCode, raw)
	}
	want := fmt.Sprintf("max_schedules %d exceeds the limit of %d", over, certify.MaxRequestSchedules)
	if e := decodeError(t, raw); e.Code != "max_schedules_too_large" || e.Error != want {
		t.Errorf("body = %+v, want code max_schedules_too_large and %q", e, want)
	}
	if n := s.shed.Load(); n != 0 {
		t.Errorf("an over-limit request was shed (%d) instead of refused before admission", n)
	}
	release()
}

// TestBenchmarkNLimit: registration refuses an Auction n above
// wire.MaxBenchmarkN with a structured 400 and registers nothing, and
// accepts the limit itself.
func TestBenchmarkNLimit(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	url := ts.URL + "/v1/workloads"
	over := wire.MaxBenchmarkN + 1
	resp, raw := doJSON(t, http.MethodPost, url, &wire.RegisterWorkloadRequest{Benchmark: "auction", N: over}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("n %d: %d, want 400\n%s", over, resp.StatusCode, raw)
	}
	want := fmt.Sprintf("n %d exceeds the limit of %d", over, wire.MaxBenchmarkN)
	if e := decodeError(t, raw); e.Code != "n_too_large" || e.Error != want {
		t.Errorf("body = %+v, want code n_too_large and %q", e, want)
	}
	if n := s.reg.len(); n != 0 {
		t.Errorf("a refused registration left %d workloads", n)
	}
	var reg wire.RegisterWorkloadResponse
	resp, raw = doJSON(t, http.MethodPost, url, &wire.RegisterWorkloadRequest{Benchmark: "auction", N: wire.MaxBenchmarkN}, &reg)
	if resp.StatusCode != http.StatusCreated || len(reg.Programs) != 2*wire.MaxBenchmarkN {
		t.Fatalf("n %d: %d with %d programs, want 201 with %d\n%.300s",
			wire.MaxBenchmarkN, resp.StatusCode, len(reg.Programs), 2*wire.MaxBenchmarkN, raw)
	}
}

// TestRequestBodyLimit: a body over maxBodyBytes — a :fromSQL script or a
// /check request — is answered 413 with code body_too_large instead of
// being decoded, and the server keeps serving afterwards.
func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)
	pad := strings.Repeat("x", maxBodyBytes)
	for _, p := range []struct {
		url  string
		body any
	}{
		{ts.URL + "/v1/workloads:fromSQL", &wire.FromSQLRequest{Script: "-- " + pad}},
		{ts.URL + "/v1/workloads/" + id + "/check", &wire.CheckRequest{Programs: []string{pad}}},
	} {
		resp, raw := doJSON(t, http.MethodPost, p.url, p.body, nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: %d, want 413\n%.200s", p.url, len(pad), resp.StatusCode, raw)
		}
		if e := decodeError(t, raw); e.Code != "body_too_large" {
			t.Errorf("POST %s: body = %+v, want code body_too_large", p.url, e)
		}
	}
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check",
		&wire.CheckRequest{Programs: []string{"Bal"}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check after oversized bodies: %d, want 200\n%s", resp.StatusCode, raw)
	}
}

// TestHandlerPanicRecovery drives a panicking handler through the metrics
// middleware: the client gets a structured 500 {"code": "panic"}, the panic
// is counted, and the server keeps serving.
func TestHandlerPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.handle("GET /v1/test/panic", epStats, func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/test/panic", nil, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d, want 500\n%s", resp.StatusCode, raw)
	}
	if e := decodeError(t, raw); e.Code != "panic" || e.Error == "" {
		t.Errorf("panic body = %+v, want code \"panic\"", e)
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("server dead after recovered panic: healthz %d", resp.StatusCode)
	}
}

// TestHandlerPanicMidResponse panics after the handler has already written:
// the committed 200 cannot be rewritten, so the middleware must abort the
// connection (the client sees a truncated body) rather than fake success —
// and still count and survive the panic.
func TestHandlerPanicMidResponse(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.handle("GET /v1/test/panicmid", epStats, func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		rw.(http.Flusher).Flush()
		panic("late")
	})
	resp, err := http.Get(ts.URL + "/v1/test/panicmid")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-write panic status: %d (headers were already committed)", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("mid-write panic delivered a clean body; want an aborted connection")
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("server dead after mid-write panic: healthz %d", resp.StatusCode)
	}
}

// TestSubsetsPanicRecovery panics inside an admitted /subsets enumeration:
// the request must get a structured 500 from the middleware, and the
// admission slot and workload pin must be released on the way out, so the
// next identical request runs a fresh, healthy enumeration.
func TestSubsetsPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrentChecks: 1})
	id := registerSmallBank(t, ts)
	s.testSubsetsHook = func() { panic("subsets boom") }

	req := &wire.CheckRequest{Programs: []string{"Bal", "Am"}}
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", req, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("subsets panic: %d, want 500\n%s", resp.StatusCode, raw)
	}
	if e := decodeError(t, raw); e.Code != "panic" {
		t.Errorf("subsets panic body = %+v, want code \"panic\"", e)
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	// The handler's deferred releases ran while the panic unwound, before
	// the middleware wrote the 500.
	if pins := s.reg.get(id).pins.Load(); pins != 0 {
		t.Errorf("workload pins = %d after the panic, want 0", pins)
	}

	s.testSubsetsHook = nil
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after subsets panic: %d, want 200 (admission slot leaked?)\n%s", resp.StatusCode, raw)
	}
}

// TestReadyLiveDrain pins the liveness/readiness split: both answer 200 on a
// healthy server; BeginDrain flips readiness to 503 {"status": "draining"}
// while liveness and the legacy /healthz stay 200 for the requests still
// draining.
func TestReadyLiveDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var ready wire.ReadyResponse
	if resp, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz/ready", nil, &ready); resp.StatusCode != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("ready: %d %+v, want 200 ready\n%s", resp.StatusCode, ready, raw)
	}
	var live wire.ReadyResponse
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz/live", nil, &live); resp.StatusCode != http.StatusOK || live.Status != "live" {
		t.Fatalf("live: %d %+v, want 200 live", resp.StatusCode, live)
	}

	s.BeginDrain()
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz/ready", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready while draining: %d, want 503\n%s", resp.StatusCode, raw)
	}
	var draining wire.ReadyResponse
	if err := json.Unmarshal(raw, &draining); err != nil || draining.Status != "draining" || !draining.Draining {
		t.Errorf("draining body = %+v (err %v), want status draining", draining, err)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz/live", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("live while draining: %d, want 200", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPersistDegradedHealth runs the flusher against a filesystem whose
// writes fail forever: after degradedAfterRounds consecutive failed rounds
// the server must report persistence "degraded" on /healthz, answer 503 on
// /healthz/ready (and 200 on /healthz/live — a full disk is not a reason to
// kill the process), and count snapshot retries.
func TestPersistDegradedHealth(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{}, &faultfs.Fault{Op: faultfs.OpWrite, Count: -1})
	s, ts := newTestServer(t, Options{
		StateDir:      t.TempDir(),
		SnapshotFS:    inj,
		FlushInterval: 2 * time.Millisecond,
	})
	registerSmallBank(t, ts) // the registration persist fails and stays dirty

	waitFor(t, 10*time.Second, "degraded persistence", func() bool { return s.degraded.Load() })
	var hz wire.HealthzResponse
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &hz); resp.StatusCode != http.StatusOK || hz.Persistence != "degraded" {
		t.Fatalf("healthz degraded: %d persistence=%q, want 200 degraded", resp.StatusCode, hz.Persistence)
	}
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz/ready", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready while degraded: %d, want 503\n%s", resp.StatusCode, raw)
	}
	var rd wire.ReadyResponse
	if err := json.Unmarshal(raw, &rd); err != nil || rd.Status != "degraded" || rd.Persistence != "degraded" {
		t.Errorf("degraded ready body = %+v (err %v)", rd, err)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz/live", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("live while degraded: %d, want 200", resp.StatusCode)
	}
	if got := s.snapRetries.Load(); got == 0 {
		t.Error("no snapshot retries counted while the flusher was failing")
	}
	// Requests still answer from memory while persistence is down.
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("stats while degraded: %d, want 200", resp.StatusCode)
	}
}

// TestPersistRetryRecovery exhausts a finite write-fault schedule and
// asserts the full retry arc: the registration persist fails, the flusher
// retries on its backoff schedule with bounded retry counts, and once the
// fault clears the workload lands on disk, health returns to "ok", and a
// fresh server restores it.
func TestPersistRetryRecovery(t *testing.T) {
	dir := t.TempDir()
	// Five writes fail (registration + four flush rounds — enough to pass
	// through the degraded threshold), then the disk heals.
	inj := faultfs.NewInjector(faultfs.OS{}, &faultfs.Fault{Op: faultfs.OpWrite, Count: 5})
	s, ts := newTestServer(t, Options{
		StateDir:      dir,
		SnapshotFS:    inj,
		FlushInterval: 2 * time.Millisecond,
	})
	registerSmallBank(t, ts)

	waitFor(t, 10*time.Second, "snapshot persisted after retries", func() bool { return s.persists.Load() >= 1 })
	waitFor(t, 10*time.Second, "degraded flag cleared", func() bool { return !s.degraded.Load() })
	var hz wire.HealthzResponse
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &hz); resp.StatusCode != http.StatusOK || hz.Persistence != "ok" {
		t.Fatalf("healthz after recovery: %d persistence=%q, want 200 ok", resp.StatusCode, hz.Persistence)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz/ready", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("ready after recovery: %d, want 200", resp.StatusCode)
	}
	if got := s.snapRetries.Load(); got < 1 || got > 8 {
		t.Errorf("snapshot retries = %d, want bounded in [1, 8] for a 5-failure schedule", got)
	}

	// The snapshot that finally stuck is a valid, loadable one.
	s2 := New(Options{StateDir: dir})
	defer s2.Close()
	if loaded, skipped, err := s2.StateReport(); loaded != 1 || skipped != 0 || err != nil {
		t.Fatalf("restart after recovery: loaded=%d skipped=%d err=%v, want 1/0/nil", loaded, skipped, err)
	}
}

// TestCloseReportsUnpersisted shuts down against a filesystem that never
// accepts a write: Close must terminate after its bounded retries and
// report how many workload snapshots were lost, so cmd/robustserved can
// exit non-zero.
func TestCloseReportsUnpersisted(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{}, &faultfs.Fault{Op: faultfs.OpWrite, Count: -1})
	s := New(Options{
		StateDir:      t.TempDir(),
		SnapshotFS:    inj,
		FlushInterval: time.Hour, // keep the background flusher out of the way
	})
	bench := benchmarks.SmallBank()
	if _, err := s.Register(bench.Schema, bench.Programs); err != nil {
		t.Fatal(err)
	}
	err := s.Close()
	if err == nil {
		t.Fatal("Close persisted nothing yet reported success")
	}
	if !strings.Contains(err.Error(), "1 workload") {
		t.Errorf("Close error = %q, want it to name the 1 lost workload", err)
	}
}

// TestCloseFlushesDirtyWorkloads is the happy half: a dirty workload on a
// healthy filesystem is flushed by Close and the error is nil.
func TestCloseFlushesDirtyWorkloads(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{StateDir: dir, FlushInterval: time.Hour})
	bench := benchmarks.SmallBank()
	reg, err := s.Register(bench.Schema, bench.Programs)
	if err != nil {
		t.Fatal(err)
	}
	w := s.reg.peek(reg.ID)
	if w == nil {
		t.Fatal("registered workload not resident")
	}
	s.markDirty(w)
	if err := s.Close(); err != nil {
		t.Fatalf("Close on healthy fs: %v", err)
	}
	s2 := New(Options{StateDir: dir})
	defer s2.Close()
	if loaded, _, _ := s2.StateReport(); loaded != 1 {
		t.Fatalf("restart loaded %d workloads, want 1", loaded)
	}
}

// closeRaceFS is a snapshot filesystem whose first Rename after arm parks
// the background flusher mid-round until Close has started (started is
// the server's base context), then lingers until the test reports that
// Close returned, or a grace period passes. A Close that does not wait for
// the flusher returns while that Rename is parked, and the rest of the
// flusher's round then runs after it: every op that starts once closed is
// closed counts as late.
type closeRaceFS struct {
	faultfs.OS
	armed         atomic.Bool
	once          sync.Once
	started       <-chan struct{}
	closed        chan struct{}
	entered, done chan struct{}
	late          atomic.Int64
}

func (f *closeRaceFS) op() {
	select {
	case <-f.closed:
		f.late.Add(1)
	default:
	}
}

func (f *closeRaceFS) Rename(oldpath, newpath string) error {
	parked := false
	if f.armed.Load() {
		f.once.Do(func() { parked = true })
	}
	if parked {
		defer close(f.done)
		close(f.entered)
		<-f.started
		select {
		case <-f.closed:
		case <-time.After(100 * time.Millisecond):
		}
	}
	f.op()
	return f.OS.Rename(oldpath, newpath)
}

func (f *closeRaceFS) MkdirAll(dir string, perm os.FileMode) error {
	f.op()
	return f.OS.MkdirAll(dir, perm)
}

func (f *closeRaceFS) Create(name string) (faultfs.File, error) {
	f.op()
	file, err := f.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return &closeRaceFile{File: file, fs: f}, nil
}

func (f *closeRaceFS) Remove(name string) error {
	f.op()
	return f.OS.Remove(name)
}

func (f *closeRaceFS) ReadDir(dir string) ([]os.DirEntry, error) {
	f.op()
	return f.OS.ReadDir(dir)
}

func (f *closeRaceFS) ReadFile(name string) ([]byte, error) {
	f.op()
	return f.OS.ReadFile(name)
}

func (f *closeRaceFS) SyncDir(dir string) error {
	f.op()
	return f.OS.SyncDir(dir)
}

// closeRaceFile counts a created file's writes, syncs and close as ops.
type closeRaceFile struct {
	faultfs.File
	fs *closeRaceFS
}

func (c *closeRaceFile) Write(p []byte) (int, error) { c.fs.op(); return c.File.Write(p) }
func (c *closeRaceFile) Sync() error                 { c.fs.op(); return c.File.Sync() }
func (c *closeRaceFile) Close() error                { c.fs.op(); return c.File.Close() }

// TestCloseWaitsForFlusher parks the background flusher inside a snapshot
// Rename and closes the server: Close must wait for the flusher's round to
// finish before its own shutdown flush, so no snapshot op runs after Close
// returns.
func TestCloseWaitsForFlusher(t *testing.T) {
	fs := &closeRaceFS{closed: make(chan struct{}), entered: make(chan struct{}), done: make(chan struct{})}
	s := New(Options{StateDir: t.TempDir(), SnapshotFS: fs, FlushInterval: time.Millisecond})
	fs.started = s.base.Done()
	bench := benchmarks.SmallBank()
	reg, err := s.Register(bench.Schema, bench.Programs)
	if err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	s.markDirty(s.reg.peek(reg.ID))
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the background flusher never reached the snapshot rename")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(fs.closed)
	select {
	case <-fs.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the parked rename never finished")
	}
	if n := fs.late.Load(); n != 0 {
		t.Errorf("%d snapshot op(s) ran after Close returned", n)
	}
}

// TestConcurrentPatchWithFailingFlusher is the -race hammer of the retry
// path: concurrent PATCHes and checks race the background flusher while
// every other snapshot write fails, exercising dirtyMu/failedPersist and
// the persistMu serialization under contention. The fault schedule is
// finite, so by the end a consistent snapshot must land on disk.
func TestConcurrentPatchWithFailingFlusher(t *testing.T) {
	dir := t.TempDir()
	// Every other write fails for the first ~60 writes, then the disk heals.
	var faults []*faultfs.Fault
	for i := 1; i < 60; i += 2 {
		faults = append(faults, faultfs.FailOnce(faultfs.OpWrite, i))
	}
	inj := faultfs.NewInjector(faultfs.OS{}, faults...)
	s, ts := newTestServer(t, Options{
		StateDir:      dir,
		SnapshotFS:    inj,
		FlushInterval: time.Millisecond,
	})
	id := registerSmallBank(t, ts)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if g%2 == 0 {
					sql := originalDepositChecking
					if i%2 == 0 {
						sql = patchedDepositChecking
					}
					body := fmt.Sprintf(`{"sql": %q}`, sql)
					req, err := http.NewRequest(http.MethodPatch,
						ts.URL+"/v1/workloads/"+id+"/programs/DepositChecking", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				} else {
					resp, err := http.Post(ts.URL+"/v1/workloads/"+id+"/check", "application/json",
						strings.NewReader(`{"programs": ["Bal", "Am"]}`))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after hammer: %d", resp.StatusCode)
	}
	// The schedule is finite: the flusher (or shutdown flush) must be able
	// to land the final state. Close retries; a healthy disk means nil.
	waitFor(t, 10*time.Second, "a snapshot write to succeed", func() bool { return s.persists.Load() >= 1 })
	s.Flush()
	s2 := New(Options{StateDir: dir})
	defer s2.Close()
	if loaded, skipped, err := s2.StateReport(); loaded != 1 || skipped != 0 || err != nil {
		t.Fatalf("restart after hammer: loaded=%d skipped=%d err=%v, want 1/0/nil", loaded, skipped, err)
	}
}

// nopRW discards everything; the admission gate only touches the response
// writer on the shed path, which these zero-alloc measurements never take.
type nopRW struct{ h http.Header }

func (w nopRW) Header() http.Header         { return w.h }
func (w nopRW) Write(p []byte) (int, error) { return len(p), nil }
func (w nopRW) WriteHeader(int)             {}

// recoveryFrame is the panic-recovery defer the middleware adds to every
// request, in isolation.
func recoveryFrame() {
	defer func() {
		_ = recover()
	}()
}

// TestAdmissionZeroAlloc pins the per-request cost of the robustness
// middleware additions — the admission gate and the recovery frame — at
// zero allocations, both with and without a configured cap.
func TestAdmissionZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"capped", Options{MaxConcurrentChecks: 4}},
		{"unlimited", Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts)
			defer s.Close()
			var rw http.ResponseWriter = nopRW{h: make(http.Header)}
			n := testing.AllocsPerRun(1000, func() {
				if !s.admit(rw) {
					t.Fatal("unexpected shed")
				}
				recoveryFrame()
				s.admitDone()
			})
			if n != 0 {
				t.Errorf("admission + recovery frame allocate %.1f/op, want 0", n)
			}
		})
	}
}

// BenchmarkServerOverhead measures the admission gate plus the recovery
// frame — the per-request overhead the robustness work added to every
// analysis route. TestAdmissionZeroAlloc pins the same loop at 0 allocs/op.
func BenchmarkServerOverhead(b *testing.B) {
	s := New(Options{MaxConcurrentChecks: 4})
	defer s.Close()
	var rw http.ResponseWriter = nopRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.admit(rw) {
			b.Fatal("unexpected shed")
		}
		recoveryFrame()
		s.admitDone()
	}
}
