// Command mvrcbench is the service benchmark: it builds cmd/robustserved,
// runs it as a child process on loopback, drives it with one closed-loop
// load generator, checks every answer against the committed answer key and
// prints every metric by name and unit. See bench/README.md.
//
// Usage (from the repository root, or through bench/run.sh):
//
//	mvrcbench [-workload W] [-seed N] [-seconds S] [-trace 0|1|out.json]
//	mvrcbench -compare a.json b.json
//	mvrcbench -regen-expected
//
// Without -workload every workload runs in turn. -trace 1 (or a file name,
// which receives the spans) selects the traced run, which reports the
// per-layer metrics instead of the end-to-end ones. Saved output of any
// number of runs is what -compare reads.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, in turn)")
		seed     = flag.Uint64("seed", 1, "seed of the generated request sequence")
		seconds  = flag.Float64("seconds", 30, "measured seconds per run")
		trace    = flag.String("trace", "0", "0: untraced run; 1 or a file name: traced run (per-layer metrics; spans written to the file)")
		compare  = flag.Bool("compare", false, "compare two files of saved output: -compare a.json b.json")
		regen    = flag.Bool("regen-expected", false, "rebuild bench/testdata/expected.json from the naive oracle")
		rootFlag = flag.String("root", "", "repository root (default: found from the working directory)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *rootFlag, *workload, *seed, *seconds, *trace, *compare, *regen); err != nil {
		fmt.Fprintln(os.Stderr, "mvrcbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, root, workload string, seed uint64, seconds float64, trace string, compare, regen bool) error {
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	switch {
	case regen:
		return bench.Regenerate(root)
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two files")
		}
		spec, err := bench.LoadSpec(root)
		if err != nil {
			return err
		}
		return bench.Compare(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	names := bench.Workloads()
	if workload != "" {
		names = []string{workload}
	}
	out := filepath.Join(root, ".bench_build")
	b, err := bench.New(ctx, root, out)
	if err != nil {
		return err
	}
	bad := 0
	for _, name := range names {
		cfg := bench.RunConfig{
			Workload: name, Seed: seed, Setups: 11,
			Measure: time.Duration(seconds * float64(time.Second)),
		}
		switch trace {
		case "0", "":
		case "1":
			cfg.Trace = true
		default:
			cfg.Trace = true
			cfg.TracePath = trace
			if len(names) > 1 {
				cfg.TracePath = strings.TrimSuffix(trace, ".json") + "-" + name + ".json"
			}
		}
		rep, err := b.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := rep.Print(os.Stdout, os.Stderr); err != nil {
			return err
		}
		if !rep.Correct() || rep.Failed > 0 {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) with failed requests or wrong answers", bad)
	}
	return nil
}

// findRoot returns the repository root: the flag's value, or the nearest
// directory at or above the working directory that holds
// cmd/robustserved.
func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "robustserved")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (a directory holding cmd/robustserved) at or above the working directory")
		}
		dir = parent
	}
}
