// Command robustserved is the long-lived robustness service: it keeps a
// registry of workloads (schema + transaction programs), each wrapping a
// warm incremental-analysis session, and answers robustness queries over
// JSON/HTTP. Registering a workload pays validation, unfolding and
// Algorithm 1's pairwise edge derivation once; every subsequent check or
// subset enumeration runs from the cached blocks, and PATCHing a single
// program invalidates only that program's pairs (incremental re-analysis).
//
// The server is restartable and memory-governed: -state-dir persists every
// registered workload (programs, version, cached subsets results) as a JSON
// snapshot and reloads them on boot, so a restarted server answers with
// byte-identical responses without re-running the analysis for cached
// enumerations; -max-bytes replaces the blind LRU cap with size-weighted
// eviction over per-workload memory estimates.
//
// Usage:
//
//	robustserved [-addr :8765] [-preload smallbank,tpcc] [flags]
//
// Flags:
//
//	-addr           listen address (default 127.0.0.1:8765)
//	-preload        comma-separated benchmarks to register at boot
//	                (smallbank, tpcc, auction); their ids are printed
//	-max-workloads  registry LRU cap (default 64)
//	-state-dir      directory for persistent workload snapshots; empty
//	                disables persistence. Corrupt snapshot files are
//	                skipped at boot, never fatal
//	-flush-interval debounce window for result-cache snapshot writes: a
//	                burst of newly cached enumerations rewrites a
//	                workload's file once per interval (default 100ms);
//	                registration and PATCH persist immediately and
//	                shutdown flushes whatever is pending
//	-max-bytes      estimated-memory budget across resident workloads;
//	                size-weighted eviction sheds workloads beyond it
//	                (0 = count-based LRU only)
//	-timeout        per-request analysis deadline (default 30s; 0 = none);
//	                -request-timeout is an alias
//	-max-concurrent-checks
//	                analysis requests (check, subsets, stream, certify)
//	                executing at once (default 256; 0 = unlimited).
//	                Requests beyond the cap are shed immediately with
//	                429, a Retry-After header and {"code": "overloaded"}
//	                instead of queueing — see the "Failure model &
//	                recovery" section of docs/ARCHITECTURE.md
//	-log-level      structured request/phase logging to stderr (slog JSON):
//	                debug (adds per-phase spans), info (access logs,
//	                default), warn, error, off
//	-pprof-addr     serve net/http/pprof on a second listener (e.g.
//	                127.0.0.1:6060); empty disables. Kept off the API
//	                listener so profiling is never publicly exposed.
//	                Heap and allocs profiles sample only while it is
//	                set: without it the process runs with
//	                runtime.MemProfileRate 0, since no endpoint could
//	                read the samples
//	-version        print version/revision (from the embedded build info)
//	                and exit
//
// Observability: GET /metrics exposes every /v1/stats counter plus
// per-endpoint request counts, in-flight gauges and latency histograms in
// Prometheus text format, and per-phase engine timing histograms
// (validate/unfold, pair derivation, compose, detect, lattice levels,
// first verdict, snapshot flush). Responses carry X-Request-ID (honoring
// an incoming header), and ?debug=timings on check/subsets returns the
// phase spans in-band. See the "Observability" section of
// docs/ARCHITECTURE.md.
//
// Endpoints (see internal/wire for the body types):
//
//	POST  /v1/workloads                        register a workload
//	GET   /v1/workloads/{id}                   workload info + cache stats
//	POST  /v1/workloads/{id}/check             robustness verdict
//	POST  /v1/workloads/{id}/subsets           robust / maximal subsets
//	GET   /v1/workloads/{id}/subsets:stream    NDJSON verdict stream (also
//	                                           POST; mode=first_non_robust,
//	                                           all_maximal_robust, top_k and
//	                                           max_subsets terminate early)
//	PATCH /v1/workloads/{id}/programs/{name}   replace one program
//	GET   /v1/stats                            server telemetry
//	GET   /healthz                             health + build + persistence
//	GET   /healthz/live                        liveness (process serves)
//	GET   /healthz/ready                       readiness (503 while
//	                                           draining or persistence-
//	                                           degraded)
//
// Shutdown is graceful: on SIGINT/SIGTERM readiness goes 503, in-flight
// requests get five seconds to drain, and pending snapshot writes are
// flushed with bounded retries. The process exits non-zero when the drain
// deadline forced connections closed or the final flush could not persist
// every dirty workload — either means work or durability was lost, and
// supervisors should know.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	mvrc "repro"
	"repro/internal/benchmarks"
	"repro/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8765", "listen address")
		preload      = flag.String("preload", "", "comma-separated benchmarks to register at boot")
		maxWorkloads = flag.Int("max-workloads", 0, "registry LRU cap (0 = default 64)")
		stateDir     = flag.String("state-dir", "", "directory for persistent workload snapshots (empty = no persistence)")
		flushEvery   = flag.Duration("flush-interval", 0, "debounce window for result-cache snapshot writes (0 = default 100ms)")
		maxBytes     = flag.Int64("max-bytes", 0, "estimated-memory budget across workloads; size-weighted eviction beyond it (0 = count-based LRU only)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request analysis deadline (0 = none)")
		maxChecks    = flag.Int("max-concurrent-checks", 256, "analysis requests executing at once; beyond it requests are shed with 429 + Retry-After (0 = unlimited)")
		logLevel     = flag.String("log-level", "info", "structured logging to stderr: debug, info, warn, error, off")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled, and heap/allocs profiles do not sample)")
		version      = flag.Bool("version", false, "print version information and exit")
	)
	flag.DurationVar(timeout, "request-timeout", 30*time.Second, "alias of -timeout")
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "robustserved")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, os.Stdout, options{
		addr:         *addr,
		preload:      *preload,
		maxWorkloads: *maxWorkloads,
		stateDir:     *stateDir,
		flushEvery:   *flushEvery,
		maxBytes:     *maxBytes,
		timeout:      *timeout,
		maxChecks:    *maxChecks,
		logLevel:     *logLevel,
		pprofAddr:    *pprofAddr,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "robustserved:", err)
		os.Exit(1)
	}
}

// options carries the parsed flags.
type options struct {
	addr         string
	preload      string
	maxWorkloads int
	stateDir     string
	flushEvery   time.Duration
	maxBytes     int64
	timeout      time.Duration
	maxChecks    int
	logLevel     string
	pprofAddr    string
}

// newLogger maps the -log-level flag to a JSON slog handler on stderr.
// "off" (or an unrecognized level) disables logging entirely — the server
// treats a nil logger as "metrics only".
func newLogger(level string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

// servePprof runs the pprof handlers on their own listener and mux: never
// the API mux, so operators can firewall profiling separately. It returns
// after the listener is bound; serving stops when ctx is cancelled.
func servePprof(ctx context.Context, addr string, out io.Writer) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	fmt.Fprintf(out, "robustserved: pprof on http://%s/debug/pprof/\n", ln.Addr())
	srv := &http.Server{Handler: mux}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		// A failed pprof shutdown never fails the process (the API server
		// owns the exit code), but silently discarding it would hide a
		// profiler connection that outlived the drain window.
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(out, "robustserved: pprof shutdown: %v\n", err)
		}
	}()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// run boots the service on a fresh listener, preloads benchmarks, logs the
// bound address and serves until ctx is cancelled. Split from main (and
// given the listener-first structure) so tests can boot on port 0.
//
// Without -pprof-addr, run turns heap profiling off before building
// anything: at the default rate the runtime files a stack for every
// 512 KiB allocated into a bucket hash and per-stack buckets it never
// frees (1-2 MB of RSS under load), and only /debug/pprof/heap and
// /debug/pprof/allocs could read them.
func run(ctx context.Context, out io.Writer, o options) error {
	if o.pprofAddr == "" {
		runtime.MemProfileRate = 0
	}
	// The flag keeps its historic "0 = no deadline" meaning; the library's
	// zero value now means DefaultRequestTimeout, so 0 maps to the
	// explicit negative opt-out.
	timeout := o.timeout
	if timeout == 0 {
		timeout = -1
	}
	srv := mvrc.NewServer(mvrc.ServerOptions{
		MaxWorkloads:        o.maxWorkloads,
		RequestTimeout:      timeout,
		MaxConcurrentChecks: o.maxChecks,
		StateDir:            o.stateDir,
		FlushInterval:       o.flushEvery,
		MaxBytes:            o.maxBytes,
		Logger:              newLogger(o.logLevel),
	})
	if o.pprofAddr != "" {
		if err := servePprof(ctx, o.pprofAddr, out); err != nil {
			return err
		}
	}
	if o.stateDir != "" {
		loaded, skipped, err := srv.StateReport()
		if err != nil {
			// Persistence failing to initialize is loud but not fatal:
			// the service still serves, it just won't survive restarts.
			fmt.Fprintf(out, "robustserved: state: persistence disabled: %v\n", err)
		} else {
			fmt.Fprintf(out, "robustserved: state: restored %d workload(s), skipped %d (%s)\n",
				loaded, skipped, o.stateDir)
		}
	}
	if err := preloadBenchmarks(srv, o.preload, out); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "robustserved: listening on %s\n", ln.Addr())
	return mvrc.ServeListener(ctx, ln, srv)
}

// preloadBenchmarks registers each named benchmark and prints its workload
// id, so operators can curl checks immediately after boot.
func preloadBenchmarks(srv *mvrc.Server, names string, out io.Writer) error {
	if names == "" {
		return nil
	}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		bench, err := benchmarks.ByName(name, 1)
		if err != nil {
			return err
		}
		resp, err := srv.Register(bench.Schema, bench.Programs)
		if err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
		fmt.Fprintf(out, "robustserved: preloaded %-10s workload %s (%d programs)\n",
			name, resp.ID, len(resp.Programs))
	}
	return nil
}
