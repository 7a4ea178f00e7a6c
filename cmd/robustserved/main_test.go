package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	mvrc "repro"
)

// syncBuffer guards the run() output buffer: run writes from the test
// goroutine spawning it while the test polls for the bound address.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`listening on (\S+)`)

// bootServer runs the binary's serve loop on port 0 with the given preload
// and returns the base URL plus a shutdown func.
func bootServer(t *testing.T, preload string) (string, func()) {
	t.Helper()
	base, _, shutdown := bootServerOpts(t, options{preload: preload, timeout: 30 * time.Second})
	return base, shutdown
}

// bootServerOpts is bootServer with full flag control (port 0 enforced); it
// also returns the boot log. run sets the heap sampling rate process-wide,
// so the rate is put back when the test ends, whatever order tests run in.
func bootServerOpts(t *testing.T, o options) (string, *syncBuffer, func()) {
	t.Helper()
	rate := runtime.MemProfileRate
	t.Cleanup(func() { runtime.MemProfileRate = rate })
	o.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, out, o)
	}()
	var base string
	for i := 0; i < 2000; i++ {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("server exited early: %v\n%s", err, out.String())
		default:
		}
		time.Sleep(time.Millisecond)
	}
	if base == "" {
		t.Fatalf("server never logged its address:\n%s", out.String())
	}
	return base, out, func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve returned %v", err)
		}
	}
}

func TestServeEndToEnd(t *testing.T) {
	base, shutdown := bootServer(t, "smallbank")
	defer shutdown()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}

	// The preloaded workload is registered: re-registering returns the
	// same id with created=false, which is how curl clients discover it.
	resp, err = http.Post(base+"/v1/workloads", "application/json",
		strings.NewReader(`{"benchmark": "smallbank"}`))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || reg.Created {
		t.Fatalf("preloaded workload not resident: %d created=%t", resp.StatusCode, reg.Created)
	}

	resp, err = http.Post(base+"/v1/workloads/"+reg.ID+"/check", "application/json",
		strings.NewReader(`{"programs": ["Am", "DC", "TS"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var check struct {
		Robust bool `json:"robust"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&check); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !check.Robust {
		t.Fatalf("{Am,DC,TS} check: %d robust=%t", resp.StatusCode, check.Robust)
	}
}

// TestStateDirRestart is the CLI half of the persistence path: a workload
// registered over HTTP survives a full serve-loop restart on the same
// -state-dir, and the boot log reports the restore.
func TestStateDirRestart(t *testing.T) {
	dir := t.TempDir()
	o := options{stateDir: dir, timeout: 30 * time.Second}

	base, _, shutdown := bootServerOpts(t, o)
	resp, err := http.Post(base+"/v1/workloads", "application/json",
		strings.NewReader(`{"benchmark": "smallbank"}`))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || reg.ID == "" {
		t.Fatalf("register: %d id=%q", resp.StatusCode, reg.ID)
	}
	shutdown()

	base, _, shutdown = bootServerOpts(t, o)
	defer shutdown()
	resp, err = http.Post(base+"/v1/workloads/"+reg.ID+"/check", "application/json",
		strings.NewReader(`{"programs": ["Am", "DC", "TS"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("restored workload check: %d, want 200 without re-registering", resp.StatusCode)
	}
}

func TestPreloadErrors(t *testing.T) {
	srv := mvrc.NewServer(mvrc.ServerOptions{})
	defer srv.Close()
	var out bytes.Buffer
	if err := preloadBenchmarks(srv, "bogus", &out); err == nil {
		t.Error("bogus preload accepted")
	}
	if err := preloadBenchmarks(srv, "smallbank, tpcc", &out); err != nil {
		t.Errorf("preload failed: %v", err)
	}
	if got := strings.Count(out.String(), "preloaded"); got != 2 {
		t.Errorf("preload logged %d workloads, want 2\n%s", got, out.String())
	}
}

var pprofRe = regexp.MustCompile(`pprof on (\S+)`)

// TestHeapSamplingOffWithoutPprof: without -pprof-addr no endpoint can
// read the heap profile, so run stops the runtime from sampling for it.
func TestHeapSamplingOffWithoutPprof(t *testing.T) {
	_, _, shutdown := bootServerOpts(t, options{timeout: 30 * time.Second})
	defer shutdown()
	if got := runtime.MemProfileRate; got != 0 {
		t.Errorf("runtime.MemProfileRate = %d without -pprof-addr, want 0", got)
	}
}

// TestPprofAndMetrics boots with -pprof-addr on port 0 and asserts both
// observability surfaces: the API listener serves /metrics in Prometheus
// text format, and the side listener serves the pprof index and a heap
// profile sampled at the default rate — two separate ports, so profiling
// can be firewalled away from the API.
func TestPprofAndMetrics(t *testing.T) {
	base, out, shutdown := bootServerOpts(t, options{
		preload: "smallbank", timeout: 30 * time.Second, pprofAddr: "127.0.0.1:0",
	})
	defer shutdown()
	// The pprof listener is bound and logged before the API listener.
	m := pprofRe.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("boot log missing the pprof address:\n%s", out.String())
	}
	pprofURL := m[1]

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("metrics: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{"mvrc_http_requests_total", "mvrc_workloads 1", "mvrc_build_info"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	resp, err = http.Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "profile") {
		t.Fatalf("pprof index: %d\n%.200s", resp.StatusCode, raw)
	}

	// The text heap profile's header names twice the sampling rate:
	// heap/1048576 is the runtime's default of 512 KiB, still in force.
	resp, err = http.Get(pprofURL + "heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	first, _, _ := strings.Cut(string(raw), "\n")
	if resp.StatusCode != http.StatusOK || !strings.Contains(first, "@ heap/1048576") {
		t.Fatalf("heap profile: %d, first line %q, want it to contain \"@ heap/1048576\"", resp.StatusCode, first)
	}
}

// TestNewLogger maps the -log-level values: off and unknown disable
// logging (nil), real levels return a handler enabled at that level.
func TestNewLogger(t *testing.T) {
	if newLogger("off") != nil || newLogger("bogus") != nil {
		t.Error("off/unknown must disable logging")
	}
	lg := newLogger("debug")
	if lg == nil || !lg.Enabled(context.Background(), slog.LevelDebug) {
		t.Error("debug logger must enable debug records")
	}
	if lg := newLogger("error"); lg == nil || lg.Enabled(context.Background(), slog.LevelInfo) {
		t.Error("error logger must drop info records")
	}
}
