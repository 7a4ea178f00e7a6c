// Package mvrc is the public API of this repository: a static-analysis
// library that decides — soundly — whether a set of transaction programs is
// robust against isolation level (multiversion) Read Committed, i.e.
// whether every interleaving the programs can produce under MVRC is
// conflict serializable, so the workload can safely run at the cheaper
// isolation level.
//
// It implements the EDBT 2023 paper "Detecting Robustness against MVRC for
// Transaction Programs with Predicate Reads" (Vandevoort, Ketsman, Koch,
// Neven): basic transaction programs with inserts, deletes, predicate
// reads, conditionals and loops (Section 5); loop unfolding to depth two
// (Proposition 6.1); automatic summary-graph construction (Algorithm 1);
// and the type-II-cycle robustness test (Algorithm 2 / Theorem 6.4),
// alongside the weaker type-I baseline of Alomari and Fekete.
//
// # Quick start
//
//	schema := relschema.NewSchema()
//	schema.MustAddRelation("Accounts", []string{"id", "bal"}, []string{"id"})
//	programs, err := mvrc.ParseSQL(schema, sqlText)
//	report, err := mvrc.Check(schema, programs)
//	if report.Robust { /* run the workload under READ COMMITTED */ }
//
// # Architecture: the incremental analysis engine
//
// All checks run on the session engine of internal/analysis. A Session
// unfolds every program exactly once per bound, caches the pairwise
// summary-graph edge blocks of Algorithm 1 per analysis setting, and
// assembles each requested graph from those blocks (summary.Compose)
// instead of re-running the quadratic edge derivation. Subset enumeration
// (RobustSubsets, the analysis behind Figures 6 and 7) walks the subset
// lattice by size: known minimal non-robust cores and robust covers decide
// most subsets by containment, and the rest run the cycle search on the
// selection's universe graph, composed once from the same cache. A robust
// selection is decided by one cycle search on its full set. Every check
// and every enumeration runs on the calling goroutine; see
// docs/ARCHITECTURE.md for the layers.
//
// One-shot calls (Check, CheckWith, RobustSubsets) create a throwaway
// session internally; long-lived callers that analyse many overlapping
// program sets should hold a NewSession and pass it each request, paying
// unfolding and edge derivation only once:
//
//	sess := mvrc.NewSession(schema)
//	report, err := sess.RobustSubsets(programs, mvrc.DefaultOptions())
//
// When one program of a long-lived workload changes, Invalidate performs
// incremental re-analysis bookkeeping: it evicts only that program's
// unfoldings and pairwise edge blocks, so the next check recomputes those
// pairs alone.
//
// # Robustness as a service
//
// NewServer and Serve expose the session engine as a resident JSON-over-
// HTTP service (cmd/robustserved): workloads are registered once into a
// fingerprint-keyed LRU registry and answer robustness queries many times
// from warm caches, with single-program PATCHes triggering the incremental
// re-analysis path.
// See internal/server for the API surface and internal/wire for the wire
// types, which cmd/robustcheck -json shares.
//
// The service is restartable and memory-governed: a per-workload result
// cache answers repeated subset enumerations from stored bytes (invalidated
// exactly by PATCH version bumps), ServerOptions.StateDir persists every
// workload as a JSON snapshot (internal/snapshot) reloaded on boot — a
// restart preserves wire behavior byte for byte, without re-running
// Algorithm 1 for cached enumerations — and ServerOptions.MaxBytes replaces
// blind LRU with size-weighted eviction over per-workload memory estimates
// (Session.SizeBytes). docs/ARCHITECTURE.md's "Subset lattice & minimal
// cores" section draws the four caches.
//
// See examples/ for complete programs and internal/experiments for the
// reproduction of the paper's evaluation.
package mvrc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/dot"
	"repro/internal/obs"
	"repro/internal/relschema"
	"repro/internal/robust"
	"repro/internal/server"
	"repro/internal/sqlbtp"
	"repro/internal/summary"
)

// Re-exported types, so that typical use needs only this package plus
// internal/relschema for schema declarations and internal/btp for
// programmatic program construction.
type (
	// Schema is a relational schema with primary and foreign keys.
	Schema = relschema.Schema
	// Program is a basic transaction program (BTP).
	Program = btp.Program
	// Setting is an analysis setting (granularity × foreign keys).
	Setting = summary.Setting
	// Method selects the cycle condition (TypeII = Algorithm 2).
	Method = summary.Method
	// Report is the outcome of a robustness check.
	Report = robust.Result
	// SubsetReport lists robust and maximal robust subsets.
	SubsetReport = robust.SubsetReport
	// Options configures a check: setting, method and unfold bound (its
	// Parallelism field is ignored). The zero value is attribute
	// granularity without foreign keys, type-II cycles, bound 2;
	// DefaultOptions selects the paper's primary setting (attribute
	// dependencies with foreign keys).
	Options = analysis.Config
	// Session is the reusable incremental analysis engine: it memoizes
	// unfoldings and pairwise summary-graph edge blocks across calls.
	Session = analysis.Session
	// Server is the resident robustness service behind cmd/robustserved.
	Server = server.Server
	// ServerOptions configures a Server: registry cap, per-request
	// timeout, the snapshot directory for restart persistence (StateDir)
	// and the estimated-memory eviction budget (MaxBytes).
	ServerOptions = server.Options
	// StreamMode selects how much of the subset lattice a streaming
	// enumeration traverses (all, first_non_robust, all_maximal_robust,
	// top_k).
	StreamMode = analysis.StreamMode
	// StreamOptions configures a streaming enumeration: mode, top-k budget
	// and an emitted-subset cap.
	StreamOptions = analysis.StreamOptions
	// StreamVerdict is one incrementally emitted subset verdict.
	StreamVerdict = analysis.StreamVerdict
	// StreamSummary is the final record of a streaming enumeration.
	StreamSummary = analysis.StreamSummary
	// Tracer receives phase spans (validate/unfold, pair derivation,
	// compose, detect, lattice levels, first verdict) from the analysis
	// engine when set on Options. A nil Tracer — the default — costs
	// nothing: the engine takes no timestamps and allocates nothing.
	// Implementations shared across concurrent calls must be safe for
	// concurrent use.
	Tracer = obs.Tracer
	// SpanRecorder is an in-memory Tracer that aggregates spans per phase;
	// cmd/robustcheck -timings and the server's ?debug=timings use it.
	SpanRecorder = obs.SpanRecorder
	// PhaseTiming is one aggregated phase entry of a SpanRecorder snapshot.
	PhaseTiming = obs.PhaseTiming
)

// NewSpanRecorder creates an empty SpanRecorder; set it as Options.Tracer
// (or Checker.Tracer) and read Snapshot after the analysis.
func NewSpanRecorder() *SpanRecorder { return obs.NewSpanRecorder() }

// Streaming enumeration modes.
const (
	// StreamAll streams every subset verdict; the summary's report is
	// identical to RobustSubsets.
	StreamAll = analysis.StreamAll
	// StreamFirstNonRobust terminates after the first (smallest)
	// non-robust verdict.
	StreamFirstNonRobust = analysis.StreamFirstNonRobust
	// StreamMaximalRobust emits only robust verdicts and stops after the
	// first level with none; its report is still exact by monotonicity.
	StreamMaximalRobust = analysis.StreamMaximalRobust
	// StreamTopK is StreamMaximalRobust plus the K largest robust subsets
	// in the summary.
	StreamTopK = analysis.StreamTopK
)

// Analysis settings (Section 7.2) and methods.
var (
	// AttrDepFK is the paper's primary setting: attribute-level
	// dependencies with foreign keys.
	AttrDepFK = summary.SettingAttrDepFK
	// AttrDep disables foreign keys.
	AttrDep = summary.SettingAttrDep
	// TplDepFK uses tuple-level dependencies with foreign keys.
	TplDepFK = summary.SettingTplDepFK
	// TplDep uses tuple-level dependencies without foreign keys.
	TplDep = summary.SettingTplDep
)

// Cycle conditions.
const (
	// TypeII is the paper's refined condition (Algorithm 2).
	TypeII = summary.TypeII
	// TypeI is the baseline condition of Alomari and Fekete [3].
	TypeI = summary.TypeI
)

// NewSchema creates an empty schema.
func NewSchema() *Schema { return relschema.NewSchema() }

// NewSession creates a reusable analysis engine over the schema. Sessions
// are safe for concurrent use and amortize validation, unfolding and
// Algorithm 1's edge derivation across calls.
func NewSession(schema *Schema) *Session { return analysis.NewSession(schema) }

// DefaultOptions returns the paper's primary configuration: attribute
// dependencies with foreign keys, type-II cycles, unfold bound 2.
func DefaultOptions() Options { return analysis.DefaultConfig() }

// ParseSQL translates transaction programs written in the SQL fragment of
// the paper's Appendix A (see internal/sqlbtp for the exact dialect) into
// basic transaction programs over the schema.
func ParseSQL(schema *Schema, src string) ([]*Program, error) {
	return sqlbtp.Parse(schema, src)
}

// Check tests whether the program set is robust against MVRC under the
// paper's primary setting (attribute dependencies + foreign keys, type-II
// cycles). Robust == true is a guarantee; false may be a false negative.
func Check(schema *Schema, programs []*Program) (*Report, error) {
	return CheckWith(schema, programs, AttrDepFK, TypeII)
}

// CheckWith tests robustness under an explicit setting and method.
func CheckWith(schema *Schema, programs []*Program, setting Setting, method Method) (*Report, error) {
	c := robust.NewChecker(schema)
	c.Setting = setting
	c.Method = method
	return c.Check(programs)
}

// CheckOptions tests robustness under a full options struct, including the
// unfold bound.
func CheckOptions(schema *Schema, programs []*Program, opts Options) (*Report, error) {
	return analysis.NewSession(schema).Check(programs, opts)
}

// RobustSubsets checks every non-empty subset of the programs and returns
// the robust and maximal robust subsets (the analysis behind Figures 6
// and 7 of the paper). The enumeration is lattice-pruned: subsets are
// visited by size and once a subset is non-robust its minimal non-robust
// core decides every superset by a bitset-containment test instead of a
// cycle search (non-robustness is monotone over induced subgraphs), with
// robust covers pruning the other direction; verdicts are identical to
// the exhaustive per-subset check. At most 20 programs are accepted. Use
// RobustSubsetsOptions to set the unfold bound.
func RobustSubsets(schema *Schema, programs []*Program, setting Setting, method Method) (*SubsetReport, error) {
	return RobustSubsetsOptions(schema, programs, Options{Setting: setting, Method: method})
}

// RobustSubsetsOptions is RobustSubsets under a full options struct.
func RobustSubsetsOptions(schema *Schema, programs []*Program, opts Options) (*SubsetReport, error) {
	return analysis.NewSession(schema).RobustSubsets(programs, opts)
}

// RobustSubsetsStream is the streaming form of RobustSubsets: the same
// lattice-pruned enumeration, on the same universe graph, emits each
// verdict through the callback the moment its level decides it, visiting
// each level in ascending subset-mask order, with optional early
// termination (first non-robust subset, maximal robust sets only, top-k,
// or an emitted-subset budget; see StreamOptions). A full stream's
// summary carries a report identical to RobustSubsets.
func RobustSubsetsStream(ctx context.Context, schema *Schema, programs []*Program, opts Options, sopts StreamOptions, emit func(StreamVerdict) error) (*StreamSummary, error) {
	return analysis.NewSession(schema).RobustSubsetsStream(ctx, programs, opts, sopts, emit)
}

// Invalidate drops everything sess has memoized for the program — its
// validation verdict, unfoldings, and every cached pairwise edge block
// with one of its LTPs as an endpoint — and reports how many pairs were
// evicted. Blocks between untouched programs stay cached, so re-analysing
// a workload after one program changed recomputes only that program's
// ordered pairs.
func Invalidate(sess *Session, p *Program) int {
	return sess.Invalidate(p)
}

// NewServer creates the resident robustness service: a fingerprint-keyed
// workload registry with an LRU cap, each entry wrapping a Session so
// unfoldings and edge-block caches are amortized across requests. Expose
// it with Serve or mount Server.Handler into an existing mux.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// Serve runs the service's HTTP API on addr until ctx is cancelled, then
// shuts down gracefully, draining in-flight requests for up to five
// seconds.
func Serve(ctx context.Context, addr string, srv *Server) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, ln, srv)
}

// ServeListener is Serve on an existing listener (which it takes ownership
// of) — the hook for callers that bind port 0 and need the chosen address.
// On ctx cancellation the server drains: readiness (/healthz/ready) goes
// 503 first so load balancers stop routing, in-flight requests get up to
// five seconds to complete, and the final snapshot flush runs with bounded
// retries. A drain deadline that forces connections closed, or a final
// flush that cannot persist, is returned as an error — callers exiting on
// it should do so non-zero, since either means client-visible work or
// durability was lost.
func ServeListener(ctx context.Context, ln net.Listener, srv *Server) error {
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		srv.BeginDrain()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(sctx)
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		return err
	case err := <-errc:
		if cerr := srv.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return err
	}
}

// SummaryGraphDOT renders the summary graph of a report in Graphviz DOT
// format (counterflow edges dashed, as in the paper's figures).
func SummaryGraphDOT(r *Report, edgeLabels bool) string {
	return dot.SummaryGraph(r.Graph, dot.Options{EdgeLabels: edgeLabels, CollapseParallel: true})
}

// Realize certifies a non-robust report: it instantiates the witness cycle
// (see internal/realize), searches the candidates' MVRC interleavings for
// a non-serializable schedule and replays it on the MVCC engine (see
// internal/certify). A Certified result proves the program set non-robust
// at the BTP level; an Unrealized one whose reason starts "exhausted"
// flags a possible false negative of the sound analysis.
func Realize(schema *Schema, r *Report) (*certify.Result, error) {
	if r.Robust {
		return nil, fmt.Errorf("mvrc: nothing to realize — the program set is robust")
	}
	return certify.Witness(context.Background(), schema, r.Graph.Setting, r.Witness, certify.Options{})
}

// Explain renders a human-readable verdict, including a dangerous cycle
// when the check failed.
func Explain(r *Report) string {
	if r.Robust {
		st := r.Graph.Stats()
		return fmt.Sprintf("robust against MVRC (summary graph: %d nodes, %d edges, %d counterflow; no dangerous cycle)",
			st.Nodes, st.Edges, st.CounterflowEdges)
	}
	return fmt.Sprintf("NOT certified robust against MVRC — dangerous cycle found:\n%s", r.Witness)
}
