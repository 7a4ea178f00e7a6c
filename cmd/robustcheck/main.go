// Command robustcheck tests transaction programs for robustness against
// multiversion Read Committed.
//
// Usage:
//
//	robustcheck -benchmark smallbank|tpcc|auction [-n N] [flags]
//	robustcheck -sql programs.sql -schema benchmark [flags]
//	robustcheck -sql script.sql -dialect postgres|mysql|sqlite [-ddl schema.sql] [flags]
//
// Flags:
//
//	-dialect   SQL dialect of the -sql file: "embedded" (the Appendix A
//	           dialect, default), "postgres", "mysql" or "sqlite"
//	-ddl       file with CREATE TABLE statements for -sql; builds the schema
//	           from the DDL and infers FK annotations from its REFERENCES
//	           clauses (alternative to -schema; the DDL may also live at the
//	           top of the -sql script itself)
//	-setting   analysis setting: "tpl", "attr", "tpl+fk", "attr+fk" (default)
//	-method    cycle condition: "type2" (Algorithm 2, default) or "type1" ([3])
//	-programs  comma-separated program names restricting the benchmark
//	-subsets   enumerate all maximal robust subsets (Figures 6/7)
//	-certify   on a non-robust verdict, realize the witness cycle into a
//	           concrete schedule, replay it on the MVCC engine and print a
//	           machine-checkable certificate (or the documented reason why
//	           no candidate realized) — the CLI twin of the server's
//	           /certify endpoint
//	-max-schedules  cap each certification candidate's interleaving search
//	           (0 = the engine default)
//	-stream    stream the subset enumeration as NDJSON: one verdict line
//	           per subset the moment the lattice walk decides it, then a
//	           summary record — the CLI twin of the server's
//	           subsets:stream endpoint (implies -subsets)
//	-mode      streaming mode: "all" (default), "first_non_robust",
//	           "all_maximal_robust", "top_k"
//	-k         result budget for -mode top_k
//	-max-subsets  stop the stream after this many emitted verdicts
//	-naive     use the naive per-subset oracle instead of the cached engine
//	-stats     print summary-graph statistics (Table 2)
//	-unfold    loop unfolding bound (default 2; 2 is sound per Prop. 6.1)
//	-json      emit the verdict as JSON using the service wire types —
//	           byte-identical to a robustserved response for the same input
//	-timings   print a per-phase timing table (validate/unfold, pair
//	           derivation, compose, detect, lattice levels, ...) to stderr
//	           after the analysis — stdout stays byte-identical, so -json
//	           output remains comparable against server responses
//	-version   print version/revision (from the embedded build info) and exit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/sqlbtp"
	"repro/internal/summary"
	"repro/internal/wire"
)

func main() {
	var (
		benchName = flag.String("benchmark", "", "benchmark to analyze: smallbank, tpcc, auction")
		n         = flag.Int("n", 1, "scaling factor for auction (Auction(n))")
		sqlFile   = flag.String("sql", "", "file with PROGRAM definitions in the Appendix A dialect (or a full script in the -dialect dialect)")
		schemaSQL = flag.String("schema", "", "benchmark name providing the schema for -sql (smallbank, tpcc, auction)")
		dialectF  = flag.String("dialect", "embedded", "SQL dialect of the -sql file: embedded, postgres, mysql, sqlite")
		ddlFile   = flag.String("ddl", "", "file with CREATE TABLE ddl for -sql (alternative to -schema; enables FK inference)")
		setting   = flag.String("setting", "attr+fk", "analysis setting: tpl, attr, tpl+fk, attr+fk")
		method    = flag.String("method", "type2", "cycle condition: type2 (Algorithm 2) or type1 ([3])")
		progList  = flag.String("programs", "", "comma-separated program names restricting the analysis")
		subsets   = flag.Bool("subsets", false, "enumerate maximal robust subsets")
		certifyF  = flag.Bool("certify", false, "realize + replay a non-robust verdict into a machine-checkable certificate")
		maxSched  = flag.Int("max-schedules", 0, "cap each certification candidate's interleaving search (0 = engine default)")
		stream    = flag.Bool("stream", false, "stream the subset enumeration as NDJSON (implies -subsets)")
		mode      = flag.String("mode", "all", "streaming mode: all, first_non_robust, all_maximal_robust, top_k")
		topK      = flag.Int("k", 0, "result budget for -mode top_k")
		maxSub    = flag.Int("max-subsets", 0, "stop the stream after this many emitted verdicts (0 = no cap)")
		naive     = flag.Bool("naive", false, "use the naive per-subset oracle instead of the cached engine")
		stats     = flag.Bool("stats", false, "print summary-graph statistics")
		unfold    = flag.Int("unfold", 2, "loop unfolding bound")
		jsonOut   = flag.Bool("json", false, "emit the verdict as JSON (service wire format)")
		timings   = flag.Bool("timings", false, "print per-phase timing table to stderr")
		version   = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "robustcheck")
		return
	}

	opts := runOptions{
		benchName: *benchName, n: *n,
		sqlFile: *sqlFile, schemaSQL: *schemaSQL,
		dialect: *dialectF, ddlFile: *ddlFile,
		setting: *setting, method: *method, progList: *progList,
		subsets: *subsets, naive: *naive,
		stats: *stats, unfold: *unfold, json: *jsonOut,
		stream: *stream, mode: *mode, k: *topK, maxSubsets: *maxSub,
		timings: *timings,
		certify: *certifyF, maxSchedules: *maxSched,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "robustcheck:", err)
		os.Exit(1)
	}
}

// runOptions carries the parsed flags.
type runOptions struct {
	benchName string
	n         int
	sqlFile   string
	schemaSQL string
	dialect   string
	ddlFile   string
	setting   string
	method    string
	progList  string
	subsets   bool
	naive     bool
	stats     bool
	unfold    int
	json      bool
	// stream/mode/k/maxSubsets select the NDJSON streaming enumeration
	// (the CLI twin of the server's subsets:stream endpoint).
	stream     bool
	mode       string
	k          int
	maxSubsets int
	// timings records per-phase spans and prints a table to errOut after
	// the analysis, reusing the server's tracer plumbing.
	timings bool
	// certify/maxSchedules drive the certification pipeline (the CLI twin
	// of the server's /certify endpoint).
	certify      bool
	maxSchedules int
	// out overrides the output stream (tests); nil means os.Stdout.
	out io.Writer
	// errOut overrides the timing-table stream (tests); nil means os.Stderr.
	errOut io.Writer
}

// parseSetting, parseMethod and loadBenchmark delegate to the shared wire /
// benchmark lookups, so CLI and server accept identical names. The CLI
// rejects the empty string the wire layer would default.
func parseSetting(s string) (summary.Setting, error) {
	if s == "" {
		return summary.Setting{}, fmt.Errorf("unknown setting %q", s)
	}
	return wire.ParseSetting(s)
}

func parseMethod(s string) (summary.Method, error) {
	if s == "" {
		return summary.TypeII, fmt.Errorf("unknown method %q", s)
	}
	return wire.ParseMethod(s)
}

func loadBenchmark(name string, n int) (*benchmarks.Benchmark, error) {
	return benchmarks.ByName(name, n)
}

func run(o runOptions) error {
	st, err := parseSetting(o.setting)
	if err != nil {
		return err
	}
	m, err := parseMethod(o.method)
	if err != nil {
		return err
	}

	var (
		bench    *benchmarks.Benchmark
		programs []*btp.Program
	)
	switch {
	case o.sqlFile != "":
		src, err := os.ReadFile(o.sqlFile)
		if err != nil {
			return err
		}
		cs := sqlbtp.Source{Dialect: o.dialect, Script: string(src)}
		switch {
		case o.schemaSQL != "":
			if o.ddlFile != "" {
				return fmt.Errorf("-schema and -ddl are mutually exclusive")
			}
			sb, err := loadBenchmark(o.schemaSQL, 1)
			if err != nil {
				return err
			}
			cs.Schema = sb.Schema
		case o.ddlFile != "":
			// Prepend the DDL so the script path sees one self-contained
			// unit; this is the FK-inference path.
			ddl, err := os.ReadFile(o.ddlFile)
			if err != nil {
				return err
			}
			cs.Script = string(ddl) + "\n" + cs.Script
		case o.dialect == "" || o.dialect == "embedded":
			return fmt.Errorf("-sql requires -schema naming a benchmark schema (or -ddl with a dialect)")
		}
		wl, err := sqlbtp.Compile(cs)
		if err != nil {
			return err
		}
		programs = wl.Programs
		bench = &benchmarks.Benchmark{Name: o.sqlFile, Schema: wl.Schema, Programs: programs}
	case o.benchName != "":
		bench, err = loadBenchmark(o.benchName, o.n)
		if err != nil {
			return err
		}
		programs = bench.Programs
	default:
		return fmt.Errorf("either -benchmark or -sql is required")
	}

	if o.progList != "" {
		var selected []*btp.Program
		for _, name := range strings.Split(o.progList, ",") {
			p := bench.Program(strings.TrimSpace(name))
			if p == nil {
				return fmt.Errorf("benchmark %s has no program %q", bench.Name, name)
			}
			selected = append(selected, p)
		}
		programs = selected
	}

	checker := robust.NewChecker(bench.Schema)
	checker.Setting = st
	checker.Method = m
	checker.UnfoldBound = o.unfold
	// cfg mirrors the checker configuration for the wire responses, which
	// echo the setting/method/bound the verdict was computed under.
	cfg := analysis.Config{Setting: st, Method: m, UnfoldBound: o.unfold}

	out := o.out
	if out == nil {
		out = os.Stdout
	}
	if o.timings {
		errOut := o.errOut
		if errOut == nil {
			errOut = os.Stderr
		}
		rec := obs.NewSpanRecorder()
		checker.Tracer = rec
		// Deferred so the table also covers partial runs that end in an
		// error; it goes to stderr so -json stdout stays byte-identical
		// to the matching server response.
		defer printTimings(rec, errOut)
	}
	if !o.json && !o.stream {
		fmt.Fprintf(out, "benchmark: %s  setting: %s  method: %s\n", bench.Name, st, m)
	}

	if o.stream {
		return runStream(o, checker, cfg, programs, out)
	}

	if o.certify {
		return runCertify(o, checker, cfg, programs, out)
	}

	if o.subsets {
		enumerate := checker.RobustSubsets
		if o.naive {
			enumerate = checker.NaiveRobustSubsets
		}
		rep, err := enumerate(programs)
		if err != nil {
			return err
		}
		if o.json {
			return wire.WriteJSON(out, wire.NewSubsetsResponse(cfg, programs, rep))
		}
		fmt.Fprintf(out, "maximal robust subsets: %s\n", rep)
		fmt.Fprintf(out, "robust subsets (all %d):\n", len(rep.Robust))
		for _, s := range rep.Robust {
			fmt.Fprintf(out, "  %s\n", s)
		}
		return nil
	}

	res, err := checker.Check(programs)
	if err != nil {
		return err
	}
	if o.json {
		return wire.WriteJSON(out, wire.NewCheckResponse(cfg, programs, res))
	}
	if o.stats {
		s := res.Graph.Stats()
		fmt.Fprintf(out, "summary graph: %d nodes, %d edges (%d counterflow)\n", s.Nodes, s.Edges, s.CounterflowEdges)
		for _, l := range res.LTPs {
			fmt.Fprintf(out, "  %s\n", l)
		}
	}
	if res.Robust {
		fmt.Fprintln(out, "verdict: ROBUST against MVRC — safe to run under READ COMMITTED")
	} else {
		fmt.Fprintln(out, "verdict: NOT certified robust against MVRC")
		fmt.Fprintf(out, "dangerous cycle:\n%s", res.Witness)
	}
	return nil
}

// printTimings writes the recorded per-phase spans as a fixed-width table:
// phase name, number of spans, accumulated wall time.
func printTimings(rec *obs.SpanRecorder, w io.Writer) {
	spans := rec.Snapshot()
	if len(spans) == 0 {
		return
	}
	fmt.Fprintln(w, "phase timings:")
	for _, s := range spans {
		fmt.Fprintf(w, "  %-16s %6d  %12.3fms\n",
			s.Phase, s.Count, float64(s.Total.Microseconds())/1e3)
	}
}

// runCertify drives the certification pipeline: static check, witness
// realization, interleaving search and engine replay. The -json document is
// the same wire.CertifyResponse the server's /certify endpoint serves.
func runCertify(o runOptions, checker *robust.Checker, cfg analysis.Config, programs []*btp.Program, out io.Writer) error {
	res, err := certify.Subset(context.Background(), checker.Session(), cfg, programs, certify.Options{MaxSchedules: o.maxSchedules})
	if err != nil {
		return err
	}
	if o.json {
		return wire.WriteJSON(out, wire.NewCertifyResponse(cfg, programs, res))
	}
	switch res.Status {
	case certify.Robust:
		fmt.Fprintln(out, "verdict: ROBUST against MVRC — nothing to certify")
	case certify.Certified:
		c := res.Certificate
		fmt.Fprintf(out, "verdict: NOT robust — CERTIFIED by replayed execution (core: %s)\n",
			strings.Join(res.Core, ", "))
		fmt.Fprintf(out, "candidate: %s  instances: %s  explored: %d schedules\n",
			c.Candidate, strings.Join(c.Instances, ", "), res.Explored)
		fmt.Fprintf(out, "schedule: %s\n", c.Schedule)
		fmt.Fprintln(out, "conflict cycle:")
		for _, d := range c.Cycle.Deps {
			fmt.Fprintf(out, "  %s\n", d)
		}
		if res.NewlyCertified {
			fmt.Fprintln(out, "core newly marked certified in the session")
		}
	default:
		fmt.Fprintf(out, "verdict: NOT robust, but UNREALIZED (core: %s)\n",
			strings.Join(res.Core, ", "))
		fmt.Fprintf(out, "reason: %s\n", res.Reason)
		fmt.Fprintf(out, "candidates searched: %d  explored: %d schedules\n",
			res.Candidates, res.Explored)
	}
	return nil
}

// runStream drives the streaming enumeration, printing the same NDJSON
// document the server's subsets:stream endpoint serves: one compact
// verdict record per line, then the summary record.
func runStream(o runOptions, checker *robust.Checker, cfg analysis.Config, programs []*btp.Program, out io.Writer) error {
	sm, err := wire.ParseStreamMode(o.mode)
	if err != nil {
		return err
	}
	if sm == analysis.StreamTopK && o.k <= 0 {
		return fmt.Errorf("-mode top_k needs -k > 0")
	}
	enc := json.NewEncoder(out) // Encode appends the NDJSON newline
	opts := analysis.StreamOptions{Mode: sm, K: o.k, MaxSubsets: o.maxSubsets}
	sum, err := checker.RobustSubsetsStream(context.Background(), programs, opts, func(v analysis.StreamVerdict) error {
		return enc.Encode(wire.NewStreamVerdictRecord(v))
	})
	if err != nil {
		return err
	}
	return enc.Encode(wire.NewStreamSummaryRecord(cfg, programs, sm, sum))
}
