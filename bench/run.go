package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// Bench is a benchmark ready to run: the answer key, the corpus and a
// freshly built server binary.
type Bench struct {
	out, serverBin string
	exp            *Expected
	corpus         map[string]string
}

// New loads and cross-checks the answer key, reads the SQL corpus from the
// checkout at root and builds cmd/robustserved into out, where logs, state
// directories and traces also go.
func New(ctx context.Context, root, out string) (*Bench, error) {
	exp, err := LoadExpected()
	if err != nil {
		return nil, err
	}
	corpus, err := readCorpus(root, exp)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(out, "logs"), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServer(ctx, root, out)
	if err != nil {
		return nil, err
	}
	return &Bench{out: out, serverBin: bin, exp: exp, corpus: corpus}, nil
}

// RunConfig selects one run.
type RunConfig struct {
	Workload string
	Seed     uint64
	// Measure is the measured window; Warmup the unmeasured traffic before
	// it (0 means Measure/6, at most 5s).
	Measure, Warmup time.Duration
	// Setups is how many times the server is started and set up, setupIdle
	// apart; setup_s is the median of the server's CPU time over them. The
	// last set-up server is the one measured.
	Setups int
	// Trace selects the traced run, which reports the per-layer metrics;
	// TracePath, when set, receives the recorded spans as JSON.
	Trace     bool
	TracePath string
}

// Metric is one reported number: a timing with its sample count N, or a
// count, ratio or size (N = 1 when it is a single reading).
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// Report is the outcome of one run.
type Report struct {
	Workload string
	Seed     uint64
	// Metrics are the result line's metrics: the end-to-end set untraced,
	// the per-layer set traced. Extra are printed by name as well.
	Metrics, Extra []Metric
	// Attempted and Failed count the measured window's requests; Failed
	// includes refused, shed, timed-out and wrong answers. Wrong counts
	// wrong answers anywhere in the run (warm-up and ladder included).
	Attempted, Failed, Wrong int
	// Errors keeps the first few failure messages.
	Errors []string
	// Stats is the server's /v1/stats after the measured window.
	Stats wire.StatsResponse
}

// Correct reports whether every answer matched the answer key.
func (r *Report) Correct() bool { return r.Wrong == 0 }

func (r *Report) noteError(err error) {
	var ae *answerError
	if errors.As(err, &ae) {
		r.Wrong++
	}
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// sample is one measured request.
type sample struct {
	op      string
	start   time.Duration // since the window opened
	latency time.Duration
	ttfv    time.Duration
	traced  bool
	err     error
}

// traceWindow is the length of the alternating traced and untraced
// windows of a traced run's load phase.
const traceWindow = 500 * time.Millisecond

// setupIdle is the pause before each set-up after the first. Set-ups run
// back to back share the host's momentary state, so their median is
// nearly one reading of it; the pauses spread a run's readings over five
// seconds.
const setupIdle = 500 * time.Millisecond

// Run sets the workload up cfg.Setups times, drives the last server with
// the workload's closed-loop clients for the warm-up and the measured
// window, and computes the metrics.
func (b *Bench) Run(ctx context.Context, cfg RunConfig) (*Report, error) {
	w, err := workloadByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Setups < 1 {
		cfg.Setups = 1
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = min(cfg.Measure/6, 5*time.Second)
	}
	rep := &Report{Workload: w.name, Seed: cfg.Seed}

	var (
		srv      *child
		stateDir string
		client   = newHTTPClient()
	)
	stop := func() error {
		client.CloseIdleConnections()
		err := srv.stop()
		srv = nil
		if stateDir != "" {
			os.RemoveAll(stateDir)
		}
		return err
	}
	defer func() {
		if srv != nil {
			stop()
		}
	}()
	var setupCPU, setupWall []float64
	for i := range cfg.Setups {
		if i > 0 {
			if err := stop(); err != nil {
				return nil, err
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(setupIdle):
			}
		}
		t0 := time.Now()
		var flags []string
		if w.maxWorkloads > 0 {
			flags = append(flags, "-max-workloads", strconv.Itoa(w.maxWorkloads))
		}
		if w.stateDir {
			stateDir = filepath.Join(b.out, fmt.Sprintf("state-%s-%d-%d", w.name, os.Getpid(), i))
			flags = append(flags, "-state-dir", stateDir)
		}
		logPath := filepath.Join(b.out, "logs", fmt.Sprintf("%s-%d.log", w.name, i))
		if srv, err = startServer(b.serverBin, logPath, flags); err != nil {
			return nil, err
		}
		tgt := httpTarget(client, srv.url)
		for _, s := range w.setupSteps(b.exp) {
			if _, err := tgt.run(s); err != nil {
				return nil, fmt.Errorf("%s setup: %s %s: %w", w.name, s.method, s.path, err)
			}
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		cpu, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, cpu)
	}

	env := &runEnv{exp: b.exp, w: w, corpus: b.corpus}
	gens := make([]func() *step, w.clients)
	for i := range gens {
		gens[i] = w.traffic(env, i, rand.New(rand.NewPCG(cfg.Seed, uint64(i))))
	}
	tgt := httpTarget(client, srv.url)
	for _, s := range closedLoop(ctx, tgt, gens, cfg.Warmup, nil) {
		if s.err != nil {
			rep.noteError(s.err)
		}
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	stopRSS := make(chan struct{})
	rssc := make(chan []float64, 1)
	go func() { rssc <- srv.sampleRSS(rssInterval, stopRSS) }()
	t0 := time.Now()
	samples := closedLoop(ctx, tgt, gens, cfg.Measure, tr)
	elapsed := time.Since(t0)
	close(stopRSS)
	rss := <-rssc
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.Attempted = len(samples)
	for _, s := range samples {
		if s.err != nil {
			rep.Failed++
			rep.noteError(s.err)
		}
	}
	if err := getJSON(client, srv.url+"/v1/stats", &rep.Stats); err != nil {
		return nil, err
	}
	peak, err := srv.memMB("VmHWM")
	if err != nil {
		return nil, err
	}
	if len(rss) == 0 {
		return nil, errors.New("no VmRSS reading of the server")
	}

	if cfg.Trace {
		shed, err := shedTotal(client, srv.url)
		if err != nil {
			return nil, err
		}
		l := &ladder{b: b, w: w, env: env, tr: tr, rep: rep, seed: cfg.Seed, child: tgt,
			certifyFor: min(2*time.Second, cfg.Measure/5)}
		if err := l.run(ctx); err != nil {
			return nil, err
		}
		rep.Metrics = l.metrics(samples, shed)
		rep.Extra = tr.selfTimes()
		if cfg.TracePath != "" {
			if err := tr.write(cfg.TracePath); err != nil {
				return nil, err
			}
		}
	} else {
		rep.Metrics, rep.Extra = endToEnd(samples, elapsed, setupCPU, setupWall, rss, peak)
	}
	if err := stop(); err != nil {
		return nil, err
	}
	return rep, nil
}

// closedLoop runs one client goroutine per generator for d: each sends its
// next request only after the previous answer arrived and was checked. In
// a traced run, requests starting in every second traceWindow record
// spans, so the traced and untraced halves give the tracing overhead.
func closedLoop(ctx context.Context, tgt target, gens []func() *step, d time.Duration, tr *tracer) []sample {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	for _, gen := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for ctx.Err() == nil && time.Now().Before(deadline) {
				s := gen()
				start := time.Now()
				sm := sample{op: s.op, start: start.Sub(t0)}
				sm.traced = tr != nil && (sm.start/traceWindow)%2 == 1
				r, err := tgt(s)
				sm.latency, sm.ttfv = r.latency, r.ttfv
				var verified time.Time
				if err == nil {
					err = s.verify(r.status, r.header, r.body)
					verified = time.Now()
				}
				sm.err = err
				if sm.traced && err == nil {
					req := tr.newRequest()
					root := tr.record(req, 0, "http."+s.op, start, verified)
					rt := tr.record(req, root, "http.roundtrip", start, start.Add(r.latency))
					if s.op == "stream" {
						tr.record(req, rt, "http.first_verdict", start, start.Add(r.ttfv))
					}
					tr.record(req, root, "bench.verify", start.Add(r.latency), verified)
				}
				local = append(local, sm)
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// rssInterval is how often the server's resident set is read during the
// measured window.
const rssInterval = 100 * time.Millisecond

// endToEnd computes the untraced run's metrics. The result line carries
// the BENCHMARK.json end-to-end set: the metrics that repeat within 10%
// from run to run on a 2-vCPU VM, plus the set-up time every benchmark
// gates. Throughput and the latencies vary between runs by 15–25% with the
// host's speed, so they, the error rate and the resident set's high-water
// mark are printed alongside, ungated.
//
// setup_s is the server's CPU time from exec to the set-up's last answer,
// not the wall-clock time: on a shared VM a set-up of a few milliseconds
// also waits for its vCPUs to be scheduled, and that wait is not the
// set-up's work. Over ten runs the wall-clock medians spread by 17–44%
// (quartile distance over median), the CPU-time medians by 10–14%. The
// wall-clock median is printed as setup_wall_s.
func endToEnd(samples []sample, elapsed time.Duration, setupCPU, setupWall, rss []float64, peak float64) (main, extra []Metric) {
	var all []float64
	byOp := map[string][]float64{}
	var ttfv []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		ms := durMS(s.latency)
		all = append(all, ms)
		byOp[s.op] = append(byOp[s.op], ms)
		if s.op == "stream" {
			ttfv = append(ttfv, durMS(s.ttfv))
		}
	}
	main = []Metric{
		{"server_rss_mb", quantile(rss, 0.5), "MB", len(rss)},
		{"setup_s", quantile(setupCPU, 0.5), "s", len(setupCPU)},
	}
	failed := len(samples) - len(all)
	extra = []Metric{
		{"setup_wall_s", quantile(setupWall, 0.5), "s", len(setupWall)},
		{"throughput_rps", float64(len(all)) / elapsed.Seconds(), "1/s", len(all)},
		{"latency_p50_ms", quantile(all, 0.5), "ms", len(all)},
		{"server_peak_rss_mb", peak, "MB", 1},
		{"latency_p99_ms", quantile(all, 0.99), "ms", len(all)},
		{"error_rate", float64(failed) / float64(max(len(samples), 1)), "ratio", len(samples)},
	}
	for _, op := range []string{"check", "subsets", "register", "patch", "certify"} {
		if xs := byOp[op]; len(xs) > 0 {
			extra = append(extra, Metric{op + "_p50_ms", quantile(xs, 0.5), "ms", len(xs)})
		}
	}
	if len(ttfv) > 0 {
		extra = append(extra, Metric{"stream_ttfv_p50_ms", quantile(ttfv, 0.5), "ms", len(ttfv)})
	}
	return main, extra
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// getJSON fetches and decodes one JSON document.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// shedTotal reads mvrc_shed_requests_total from /metrics.
func shedTotal(c *http.Client, base string) (float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer drain(resp.Body)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "mvrc_shed_requests_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("/metrics lacks mvrc_shed_requests_total")
}
