// Package wire defines the JSON wire types of the robustness service: the
// request and response bodies of cmd/robustserved's HTTP API. The types are
// shared with the CLIs — cmd/robustcheck's -json mode marshals the same
// CheckResponse/SubsetsResponse through the same encoder, so a CLI run and
// a server round-trip produce byte-identical documents for the same input.
//
// The package also owns the canonical textual names of the four analysis
// settings of the paper's Section 7.2 ("attr+fk", "tpl", ...) and of the
// two cycle methods ("type2" = Algorithm 2, "type1" = the baseline of
// Alomari and Fekete), previously private to cmd/robustcheck.
package wire

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/obs"
	"repro/internal/relschema"
	"repro/internal/summary"
)

// WriteJSON encodes v as two-space-indented JSON followed by a newline.
// Every producer of wire documents (server handlers, robustcheck -json)
// encodes through this function, which is what makes their outputs
// byte-comparable.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Error is the uniform error envelope of non-2xx responses. Code and
// RetryAfterSeconds are optional machine-readable extensions (both
// omitempty, so pre-existing error bodies are byte-identical): overload
// shedding answers 429 with Code "overloaded" and a RetryAfterSeconds
// mirroring the Retry-After header, a recovered handler panic answers
// 500 with Code "panic", a subset enumeration over more programs than
// the engine's limit answers 400 with Code "too_many_programs", an
// unfold_bound above btp.MaxUnfoldBound answers 400 with Code
// "unfold_bound_too_large", and a request body over the server's size
// limit answers 413 with Code "body_too_large".
type Error struct {
	Error             string `json:"error"`
	Code              string `json:"code,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// CodedError is a request error that carries the machine-readable code of
// its Error envelope.
type CodedError struct {
	Code, Msg string
}

func (e *CodedError) Error() string { return e.Msg }

// --- Settings and methods --------------------------------------------------

// ParseSetting resolves a setting name: "tpl", "attr", "tpl+fk", "attr+fk".
// The empty string resolves to the paper's primary setting, attr+fk.
func ParseSetting(s string) (summary.Setting, error) {
	switch s {
	case "", "attr+fk":
		return summary.SettingAttrDepFK, nil
	case "tpl":
		return summary.SettingTplDep, nil
	case "attr":
		return summary.SettingAttrDep, nil
	case "tpl+fk":
		return summary.SettingTplDepFK, nil
	default:
		return summary.Setting{}, fmt.Errorf("unknown setting %q", s)
	}
}

// SettingName renders a setting as its wire name (the inverse of
// ParseSetting).
func SettingName(s summary.Setting) string {
	name := "attr"
	if s.Granularity == summary.TupleGranularity {
		name = "tpl"
	}
	if s.UseForeignKeys {
		name += "+fk"
	}
	return name
}

// ParseMethod resolves a cycle-condition name: "type2" (Algorithm 2) or
// "type1" ([3]); the empty string resolves to type2.
func ParseMethod(s string) (summary.Method, error) {
	switch s {
	case "type1", "type-1", "typeI":
		return summary.TypeI, nil
	case "", "type2", "type-2", "typeII":
		return summary.TypeII, nil
	default:
		return summary.TypeII, fmt.Errorf("unknown method %q", s)
	}
}

// MethodName renders a method as its wire name.
func MethodName(m summary.Method) string {
	if m == summary.TypeI {
		return "type1"
	}
	return "type2"
}

// --- Schema ----------------------------------------------------------------

// Schema is the wire form of a relational schema, for registering workloads
// that are not built-in benchmarks.
type Schema struct {
	Relations   []Relation   `json:"relations"`
	ForeignKeys []ForeignKey `json:"foreign_keys,omitempty"`
}

// Relation declares one relation with its primary key.
type Relation struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	Key   []string `json:"key"`
}

// ForeignKey declares a named foreign key between two relations.
type ForeignKey struct {
	Name      string   `json:"name"`
	From      string   `json:"from"`
	FromAttrs []string `json:"from_attrs"`
	To        string   `json:"to"`
	ToAttrs   []string `json:"to_attrs"`
}

// Build materializes the wire schema as a validated relschema.Schema.
func (s *Schema) Build() (*relschema.Schema, error) {
	out := relschema.NewSchema()
	for _, r := range s.Relations {
		if err := out.AddRelation(r.Name, r.Attrs, r.Key); err != nil {
			return nil, err
		}
	}
	for _, fk := range s.ForeignKeys {
		if err := out.AddForeignKey(fk.Name, fk.From, fk.FromAttrs, fk.To, fk.ToAttrs); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// --- Workload registration -------------------------------------------------

// RegisterWorkloadRequest registers a workload: either a built-in benchmark
// by name (optionally scaled by N, and optionally with its programs
// replaced by ProgramsSQL) or an explicit Schema plus ProgramsSQL in the
// SQL dialect of Appendix A.
type RegisterWorkloadRequest struct {
	Benchmark   string  `json:"benchmark,omitempty"`
	N           int     `json:"n,omitempty"`
	Schema      *Schema `json:"schema,omitempty"`
	ProgramsSQL string  `json:"programs_sql,omitempty"`
}

// FromSQLRequest registers a workload from dialect SQL via
// POST /v1/workloads:fromSQL. Either Script (a self-contained script: DDL
// plus programs introduced by "-- program Name [as Abbrev]" directives) or
// DDL + Programs (CREATE TABLE statements separate from per-program
// bodies), never both. Dialect selects the front-end: "postgres", "mysql",
// "sqlite" or "embedded" (empty means embedded).
type FromSQLRequest struct {
	Dialect  string       `json:"dialect,omitempty"`
	Script   string       `json:"script,omitempty"`
	DDL      string       `json:"ddl,omitempty"`
	Programs []SQLProgram `json:"programs,omitempty"`
}

// SQLProgram is one program submitted separately from the DDL: its name,
// optional abbreviation and body SQL (statements only, no header).
type SQLProgram struct {
	Name   string `json:"name"`
	Abbrev string `json:"abbrev,omitempty"`
	SQL    string `json:"sql"`
}

// SQLError is the 400 body of :fromSQL when compilation fails: the rendered
// message plus the structured position — dialect, program, line and column
// — when the failure is attributable to a source location.
type SQLError struct {
	Error   string `json:"error"`
	Dialect string `json:"dialect,omitempty"`
	Program string `json:"program,omitempty"`
	Line    int    `json:"line,omitempty"`
	Column  int    `json:"column,omitempty"`
}

// RegisterWorkloadResponse identifies the registered workload. Registration
// is idempotent: re-registering an identical workload returns the existing
// ID with Created=false.
type RegisterWorkloadResponse struct {
	// ID is the workload's fingerprint — stable across identical
	// registrations and across PATCHes.
	ID      string `json:"id"`
	Created bool   `json:"created"`
	// Version counts applied PATCHes; responses to /check and /subsets
	// echo the version their verdict was computed against in the
	// X-Workload-Version header.
	Version  uint64   `json:"version"`
	Programs []string `json:"programs"`
}

// --- Check and subsets -----------------------------------------------------

// CheckRequest configures one robustness check. All fields are optional:
// zero values select the paper's primary configuration over the workload's
// full program set.
type CheckRequest struct {
	// Setting is a ParseSetting name; empty means "attr+fk".
	Setting string `json:"setting,omitempty"`
	// Method is a ParseMethod name; empty means "type2".
	Method string `json:"method,omitempty"`
	// UnfoldBound overrides the loop-unfolding bound; 0 means 2. Config
	// refuses bounds above btp.MaxUnfoldBound.
	UnfoldBound int `json:"unfold_bound,omitempty"`
	// Programs restricts the check to the named programs (full names or
	// abbreviations); empty means all registered programs.
	Programs []string `json:"programs,omitempty"`
	// Parallelism is the per-request worker count of subset enumeration
	// (and of the /certify search). 0 means the server's resolved default;
	// positive values are capped by the server's bound — the -parallel
	// option, or GOMAXPROCS when the operator left it unset — so a request
	// can lower concurrency but never raise it past what the operator
	// allows. Parallelism never changes a verdict, only the wall-clock, so
	// requests differing only in this field may still be coalesced.
	Parallelism int `json:"parallelism,omitempty"`
}

// Config resolves the request into an engine configuration. An unfold
// bound above btp.MaxUnfoldBound is a *CodedError "unfold_bound_too_large":
// the request, not the operator, would pick an exponential cost.
func (r *CheckRequest) Config() (analysis.Config, error) {
	if r.UnfoldBound > btp.MaxUnfoldBound {
		return analysis.Config{}, &CodedError{
			Code: "unfold_bound_too_large",
			Msg:  fmt.Sprintf("unfold_bound %d exceeds the limit of %d", r.UnfoldBound, btp.MaxUnfoldBound),
		}
	}
	setting, err := ParseSetting(r.Setting)
	if err != nil {
		return analysis.Config{}, err
	}
	method, err := ParseMethod(r.Method)
	if err != nil {
		return analysis.Config{}, err
	}
	return analysis.Config{
		Setting: setting, Method: method,
		UnfoldBound: r.UnfoldBound, Parallelism: r.Parallelism,
	}, nil
}

// GraphStats mirrors summary.Stats on the wire.
type GraphStats struct {
	Nodes            int `json:"nodes"`
	Edges            int `json:"edges"`
	CounterflowEdges int `json:"counterflow_edges"`
}

// Witness is the wire form of a dangerous cycle.
type Witness struct {
	Method string `json:"method"`
	// Cycle lists the witness edges in traversal order, rendered as
	// "(P, q@pos, class, q@pos, P)".
	Cycle []string `json:"cycle"`
}

// CheckResponse reports one robustness verdict.
type CheckResponse struct {
	Setting     string     `json:"setting"`
	Method      string     `json:"method"`
	UnfoldBound int        `json:"unfold_bound"`
	Programs    []string   `json:"programs"`
	Robust      bool       `json:"robust"`
	Graph       GraphStats `json:"graph"`
	Witness     *Witness   `json:"witness,omitempty"`
	// Timings is the per-phase span aggregate of this request, present only
	// behind the ?debug=timings opt-in (and robustcheck -timings -json).
	// Handlers attach it after assembly — NewCheckResponse never sets it —
	// so the default wire document stays byte-identical to older releases.
	Timings []PhaseTiming `json:"timings,omitempty"`
}

// PhaseTiming is one phase's aggregated spans in a ?debug=timings response
// block: how many spans the phase emitted during the request and their
// total duration.
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Count   uint64  `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// NewPhaseTimings converts a SpanRecorder snapshot to its wire form.
func NewPhaseTimings(spans []obs.PhaseTiming) []PhaseTiming {
	if len(spans) == 0 {
		return nil
	}
	out := make([]PhaseTiming, len(spans))
	for i, s := range spans {
		out[i] = PhaseTiming{
			Phase:   s.Phase,
			Count:   s.Count,
			TotalMS: float64(s.Total.Microseconds()) / 1e3,
		}
	}
	return out
}

// NewCheckResponse assembles the wire response for one check: the resolved
// configuration, the checked programs' short names in input order, the
// verdict, graph statistics and (when not robust) the witness cycle. Both
// the server and robustcheck -json build their responses here.
func NewCheckResponse(cfg analysis.Config, programs []*btp.Program, res *analysis.Result) *CheckResponse {
	resp := &CheckResponse{
		Setting:     SettingName(cfg.Setting),
		Method:      MethodName(cfg.Method),
		UnfoldBound: effectiveBound(cfg),
		Programs:    shortNames(programs),
		Robust:      res.Robust,
		Graph:       newGraphStats(res.Graph),
	}
	if w := res.Witness; w != nil {
		wt := &Witness{Method: MethodName(w.Method)}
		for _, e := range w.Cycle {
			wt.Cycle = append(wt.Cycle, e.String())
		}
		resp.Witness = wt
	}
	return resp
}

// SubsetsResponse reports the robust and maximal robust subsets of one
// enumeration (Figures 6 and 7), each subset as sorted short names.
type SubsetsResponse struct {
	Setting     string     `json:"setting"`
	Method      string     `json:"method"`
	UnfoldBound int        `json:"unfold_bound"`
	Programs    []string   `json:"programs"`
	Robust      [][]string `json:"robust"`
	Maximal     [][]string `json:"maximal"`
	// SubsetsPruned counts the subsets this enumeration decided by core
	// or cover containment instead of running the cycle detector (0 for
	// the naive oracle, which runs it on every subset).
	// Deterministic for a given session state — a fresh CLI run and a
	// fresh server enumeration report the same value — but a warm session
	// with seeded cores legitimately prunes more; cached responses replay
	// the count of the run that produced them.
	SubsetsPruned int `json:"subsets_pruned"`
	// CertifiedCores counts the minimal non-robust cores relevant to this
	// enumeration whose non-robustness is backed by a replayed
	// non-serializable execution (internal/certify) rather than static
	// reasoning alone.
	CertifiedCores int `json:"certified_cores"`
	// Timings is the per-phase span aggregate, present only behind the
	// ?debug=timings opt-in. Timed requests bypass the result cache and
	// coalescing (a cached body replays another run's bytes, which would
	// carry another run's timings), so cached documents never contain it.
	Timings []PhaseTiming `json:"timings,omitempty"`
}

// NewSubsetsResponse assembles the wire response for one subset
// enumeration.
func NewSubsetsResponse(cfg analysis.Config, programs []*btp.Program, rep *analysis.SubsetReport) *SubsetsResponse {
	return &SubsetsResponse{
		Setting:        SettingName(cfg.Setting),
		Method:         MethodName(cfg.Method),
		UnfoldBound:    effectiveBound(cfg),
		Programs:       shortNames(programs),
		Robust:         subsetsToWire(rep.Robust),
		Maximal:        subsetsToWire(rep.Maximal),
		SubsetsPruned:  rep.Pruned,
		CertifiedCores: rep.CertifiedCores,
	}
}

// --- Certification ---------------------------------------------------------

// CertifyRequest configures one certification run
// (POST /v1/workloads/{id}/certify; robustcheck -certify). The embedded
// CheckRequest fields select the configuration and program subset exactly
// as /check does; MaxSchedules bounds each candidate instantiation's
// interleaving search (0 = the engine default).
type CertifyRequest struct {
	CheckRequest
	MaxSchedules int `json:"max_schedules,omitempty"`
}

// Certificate is the wire form of a machine-checkable counterexample: the
// abstract MVRC schedule the search found, the schedule the MVCC engine
// recorded while replaying it, and one conflict cycle of the replayed
// execution's serialization graph.
type Certificate struct {
	// Candidate names the instantiation strategy that found the schedule
	// ("canonical", "guided", or their "+extra" variants).
	Candidate string   `json:"candidate"`
	Instances []string `json:"instances"`
	Schedule  string   `json:"schedule"`
	Recorded  string   `json:"recorded"`
	Cycle     []string `json:"cycle"`
}

// CertifyResponse reports one certification attempt. Status is "robust"
// (nothing to certify), "certified" (Certificate holds the evidence) or
// "unrealized" (Reason starts with one of the documented prefixes:
// "no candidate", "exhausted", "budget").
type CertifyResponse struct {
	Setting     string   `json:"setting"`
	Method      string   `json:"method"`
	UnfoldBound int      `json:"unfold_bound"`
	Programs    []string `json:"programs"`
	Status      string   `json:"status"`
	// Core lists the programs on the witness cycle — the subset the
	// certificate speaks about; empty for robust verdicts.
	Core       []string `json:"core,omitempty"`
	Reason     string   `json:"reason,omitempty"`
	Candidates int      `json:"candidates"`
	Explored   int      `json:"explored"`
	// NewlyCertified reports whether this request set the certified
	// provenance bit on the session's stored core (false when re-certifying
	// an already certified core).
	NewlyCertified bool         `json:"newly_certified"`
	Certificate    *Certificate `json:"certificate,omitempty"`
	// Timings is the per-phase span aggregate of the embedded static check,
	// present only behind the ?debug=timings opt-in.
	Timings []PhaseTiming `json:"timings,omitempty"`
}

// NewCertifyResponse assembles the wire response for one certification.
func NewCertifyResponse(cfg analysis.Config, programs []*btp.Program, res *certify.Result) *CertifyResponse {
	resp := &CertifyResponse{
		Setting:        SettingName(cfg.Setting),
		Method:         MethodName(cfg.Method),
		UnfoldBound:    effectiveBound(cfg),
		Programs:       shortNames(programs),
		Status:         res.Status.String(),
		Core:           res.Core,
		Reason:         res.Reason,
		Candidates:     res.Candidates,
		Explored:       res.Explored,
		NewlyCertified: res.NewlyCertified,
	}
	if c := res.Certificate; c != nil {
		wc := &Certificate{
			Candidate: c.Candidate,
			Instances: c.Instances,
			Schedule:  c.Schedule.String(),
			Recorded:  c.Recorded.String(),
		}
		for _, d := range c.Cycle.Deps {
			wc.Cycle = append(wc.Cycle, d.String())
		}
		resp.Certificate = wc
	}
	return resp
}

// --- Streaming subsets -----------------------------------------------------

// StreamRequest configures one streaming subset enumeration
// (POST /v1/workloads/{id}/subsets:stream; the GET variant carries the
// same fields as query parameters). The embedded CheckRequest fields
// select the configuration and program restriction exactly as /subsets
// does.
type StreamRequest struct {
	CheckRequest
	// Mode is a ParseStreamMode name: "all" (default), "first_non_robust",
	// "all_maximal_robust" or "top_k".
	Mode string `json:"mode,omitempty"`
	// K is the result budget of top_k mode.
	K int `json:"k,omitempty"`
	// MaxSubsets, when positive, terminates the stream after that many
	// emitted verdicts, whatever the mode.
	MaxSubsets int `json:"max_subsets,omitempty"`
}

// ParseStreamMode resolves a streaming mode name; the empty string means
// stream everything.
func ParseStreamMode(s string) (analysis.StreamMode, error) {
	switch s {
	case "", "all":
		return analysis.StreamAll, nil
	case "first_non_robust":
		return analysis.StreamFirstNonRobust, nil
	case "all_maximal_robust", "maximal":
		return analysis.StreamMaximalRobust, nil
	case "top_k":
		return analysis.StreamTopK, nil
	default:
		return analysis.StreamAll, fmt.Errorf("unknown stream mode %q", s)
	}
}

// StreamVerdictRecord is one NDJSON line of a subsets:stream response: a
// single subset's verdict, emitted the moment the enumeration decides it.
type StreamVerdictRecord struct {
	// Programs is the subset (sorted short names); Size its cardinality —
	// the lattice level that decided it.
	Programs []string `json:"programs"`
	Size     int      `json:"size"`
	Robust   bool     `json:"robust"`
	// DecidedBy is "core" or "cover" for containment-pruned verdicts and
	// "detector" when the cycle detector ran.
	DecidedBy string `json:"decided_by"`
}

// NewStreamVerdictRecord converts an engine verdict to its wire line.
func NewStreamVerdictRecord(v analysis.StreamVerdict) StreamVerdictRecord {
	return StreamVerdictRecord{
		Programs:  v.Programs,
		Size:      v.Size,
		Robust:    v.Robust,
		DecidedBy: v.DecidedBy,
	}
}

// StreamSummaryRecord is the final NDJSON line of a subsets:stream
// response, distinguished from verdict lines by `"summary": true`.
type StreamSummaryRecord struct {
	Summary     bool     `json:"summary"`
	Mode        string   `json:"mode"`
	Setting     string   `json:"setting"`
	Method      string   `json:"method"`
	UnfoldBound int      `json:"unfold_bound"`
	Programs    []string `json:"programs"`
	// Emitted counts verdict lines above this one; Checked counts detector
	// runs, SubsetsPruned containment decisions and Cores the stored
	// minimal non-robust cores after the run.
	Emitted       int `json:"emitted"`
	Checked       int `json:"checked"`
	SubsetsPruned int `json:"subsets_pruned"`
	Cores         int `json:"cores"`
	// EarlyTerminated is true when the stream stopped before visiting the
	// whole lattice; Reason is then "first_non_robust", "level_exhausted"
	// or "max_subsets".
	EarlyTerminated bool   `json:"early_terminated"`
	Reason          string `json:"reason,omitempty"`
	// Maximal lists the maximal robust subsets when the run's robust
	// knowledge is complete (a full stream, or a level-exhausted
	// termination); TopK the K largest robust subsets in top_k mode.
	Maximal [][]string `json:"maximal,omitempty"`
	TopK    [][]string `json:"top_k,omitempty"`
}

// NewStreamSummaryRecord assembles the final line of a stream.
func NewStreamSummaryRecord(cfg analysis.Config, programs []*btp.Program, mode analysis.StreamMode, sum *analysis.StreamSummary) *StreamSummaryRecord {
	rec := &StreamSummaryRecord{
		Summary:         true,
		Mode:            mode.String(),
		Setting:         SettingName(cfg.Setting),
		Method:          MethodName(cfg.Method),
		UnfoldBound:     effectiveBound(cfg),
		Programs:        shortNames(programs),
		Emitted:         sum.Emitted,
		Checked:         sum.Checked,
		SubsetsPruned:   sum.Pruned,
		Cores:           sum.Cores,
		EarlyTerminated: sum.Terminated,
		Reason:          sum.Reason,
	}
	if sum.Report != nil {
		rec.Maximal = subsetsToWire(sum.Report.Maximal)
	}
	if len(sum.TopK) > 0 {
		rec.TopK = subsetsToWire(sum.TopK)
	}
	return rec
}

// --- Program patching ------------------------------------------------------

// PatchProgramRequest replaces one registered program's definition with a
// new one in the SQL dialect of Appendix A. The PROGRAM's name must match
// the path's program name.
type PatchProgramRequest struct {
	SQL string `json:"sql"`
}

// PatchProgramResponse reports the incremental re-analysis bookkeeping of
// one patch.
type PatchProgramResponse struct {
	Program string `json:"program"`
	// Version is the workload version after the patch.
	Version uint64 `json:"version"`
	// InvalidatedPairs counts the ordered LTP pairs evicted from the block
	// caches — only pairs with the old program as an endpoint; blocks
	// between untouched programs survive.
	InvalidatedPairs int `json:"invalidated_pairs"`
	// InvalidatedResults counts the subsets result-cache entries dropped by
	// the patch's version bump (every entry of this workload; entries of
	// other workloads are untouched).
	InvalidatedResults int `json:"invalidated_results"`
}

// --- Stats -----------------------------------------------------------------

// CacheStats is the wire form of one workload's session telemetry.
type CacheStats struct {
	Programs    int    `json:"programs"`
	Unfoldings  int    `json:"unfoldings"`
	Settings    int    `json:"settings"`
	Pairs       int    `json:"pairs"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Invalidated uint64 `json:"invalidated"`
	// Cores is the lattice-pruning telemetry of the subset enumeration:
	// the minimal non-robust core store and its containment-scan counters.
	Cores CoreSetStats `json:"cores"`
}

// CoreSetStats is the wire form of the session's lattice-pruning
// telemetry: Cores counts stored minimal non-robust cores and Covers the
// stored robust covers (the anti-monotone dual) across configurations;
// Hits counts subsets decided non-robust by the core containment scan,
// CoverHits subsets decided robust by the cover scan, Misses subsets that
// ran the cycle detector; SubsetsPruned = Hits + CoverHits (detector runs
// skipped); SizeBytes is the stores' estimated resident memory.
type CoreSetStats struct {
	Cores  int `json:"cores"`
	Covers int `json:"covers"`
	// CertifiedCores counts stored cores carrying the certified provenance
	// bit — their non-robustness is backed by a replayed execution.
	CertifiedCores int    `json:"certified_cores"`
	Hits           uint64 `json:"hits"`
	CoverHits      uint64 `json:"cover_hits"`
	Misses         uint64 `json:"misses"`
	SubsetsPruned  uint64 `json:"subsets_pruned"`
	SizeBytes      int64  `json:"size_bytes"`
	// SchedChecked/SchedHits rate the streaming enumeration's cost-ordered
	// scheduler: of the detector-run subsets the scheduler placed in the
	// first half of their level's visit order, SchedHits were non-robust —
	// the verdicts worth front-loading.
	SchedChecked uint64 `json:"sched_checked"`
	SchedHits    uint64 `json:"sched_hits"`
}

// NewCacheStats converts a session snapshot to its wire form.
func NewCacheStats(st analysis.Stats) CacheStats {
	return CacheStats{
		Programs:    st.Programs,
		Unfoldings:  st.Unfoldings,
		Settings:    st.Settings,
		Pairs:       st.Blocks.Pairs,
		Hits:        st.Blocks.Hits,
		Misses:      st.Blocks.Misses,
		Invalidated: st.Blocks.Invalidated,
		Cores: CoreSetStats{
			Cores:          st.Cores.Cores,
			Covers:         st.Cores.Covers,
			CertifiedCores: st.Cores.Certified,
			Hits:           st.Cores.Hits,
			CoverHits:      st.Cores.CoverHits,
			Misses:         st.Cores.Misses,
			SubsetsPruned:  st.Cores.Pruned,
			SizeBytes:      st.Cores.SizeBytes,
			SchedChecked:   st.Cores.SchedChecked,
			SchedHits:      st.Cores.SchedHits,
		},
	}
}

// ResultCacheStats is the wire form of one workload's subsets result-cache
// telemetry: Entries is the current entry count, Hits/Misses count lookups,
// Invalidated counts entries dropped by PATCH version bumps.
type ResultCacheStats struct {
	Entries     int    `json:"entries"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Invalidated uint64 `json:"invalidated"`
}

// WorkloadStats describes one registered workload in /v1/stats.
type WorkloadStats struct {
	ID       string   `json:"id"`
	Version  uint64   `json:"version"`
	Programs []string `json:"programs"`
	Checks   uint64   `json:"checks"`
	Subsets  uint64   `json:"subsets"`
	Patches  uint64   `json:"patches"`
	// LastParallelism is the effective worker count of the workload's most
	// recent check or subsets request — the request's parallelism field
	// after applying the server's -parallel default and cap, with 0
	// resolved to GOMAXPROCS. It stays 0 until the first analysis request,
	// so operators can tell "never analysed" from "analysed sequentially"
	// (which reports 1). Requests answered from the subsets result cache
	// record their resolved value too, even though no workers ran.
	LastParallelism int        `json:"last_parallelism"`
	Cache           CacheStats `json:"cache"`
	// ResultCache is the workload's subsets result-cache telemetry.
	ResultCache ResultCacheStats `json:"result_cache"`
	// SizeBytes is the workload's estimated resident memory (programs +
	// session caches + result cache), the quantity the -max-bytes eviction
	// policy weighs.
	SizeBytes int64 `json:"size_bytes"`
}

// RequestStats counts served requests by kind. Coalesced counts /subsets
// requests answered by piggybacking on an identical in-flight enumeration;
// Streamed counts subsets:stream requests and EarlyTerminations the
// streams that stopped before visiting the whole lattice (mode-driven
// termination or an emitted-subset budget — not client disconnects).
type RequestStats struct {
	Register          uint64 `json:"register"`
	Check             uint64 `json:"check"`
	Subsets           uint64 `json:"subsets"`
	Certify           uint64 `json:"certify"`
	Patch             uint64 `json:"patch"`
	Coalesced         uint64 `json:"coalesced"`
	Streamed          uint64 `json:"streamed_requests"`
	EarlyTerminations uint64 `json:"early_terminations"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workloads     int     `json:"workloads"`
	// Evictions counts workloads evicted by the count-based LRU cap
	// (-max-workloads); EvictionsBytes counts evictions by the memory-aware
	// -max-bytes policy.
	Evictions      uint64 `json:"evictions"`
	EvictionsBytes uint64 `json:"evictions_bytes"`
	// MaxBytes echoes the -max-bytes budget (0 = unlimited) and
	// TotalSizeBytes the current estimated resident total across workloads.
	MaxBytes       int64 `json:"max_bytes"`
	TotalSizeBytes int64 `json:"total_size_bytes"`
	// SnapshotsLoaded counts workloads restored from -state-dir at boot;
	// PersistErrors counts snapshot writes that failed since boot (the
	// server keeps serving from memory when one does).
	SnapshotsLoaded int    `json:"snapshots_loaded"`
	PersistErrors   uint64 `json:"persist_errors"`
	// CertifiedCores counts, across all resident workloads, the stored
	// minimal non-robust cores carrying the certified provenance bit;
	// UnrealizedCandidates accumulates the candidate instantiations that
	// certify requests searched without finding a counterexample.
	CertifiedCores       int    `json:"certified_cores"`
	UnrealizedCandidates uint64 `json:"unrealized_candidates"`
	// DefaultParallelism is the resolved server-wide worker count applied
	// to requests that do not set their own parallelism field: the
	// -parallel flag, or GOMAXPROCS when unset.
	DefaultParallelism int             `json:"default_parallelism"`
	Requests           RequestStats    `json:"requests"`
	WorkloadStats      []WorkloadStats `json:"workload_stats"`
	// StatsGeneration increments on every served /v1/stats response, so a
	// poller can order snapshots and detect a server restart (the counter
	// resets to 1) without comparing timestamps.
	StatsGeneration uint64 `json:"stats_generation"`
}

// HealthzResponse is the body of GET /healthz: liveness plus build
// attribution, so a deployed server is traceable to a commit from the
// probe endpoint alone. Persistence reports the snapshot subsystem:
// "ok", "degraded" (consecutive flush rounds failing; the flusher is
// retrying with backoff), "failed" (the state directory was unusable at
// boot), or omitted when persistence is disabled.
type HealthzResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	Revision      string  `json:"revision"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Persistence   string  `json:"persistence,omitempty"`
}

// ReadyResponse is the body of GET /healthz/ready and /healthz/live —
// the split probes: liveness stays up as long as the process serves,
// readiness goes 503 while the server drains for shutdown or while
// persistence is degraded, steering load balancers away without killing
// in-flight work.
type ReadyResponse struct {
	Status      string `json:"status"` // "ready", "live", "draining" or "degraded"
	Draining    bool   `json:"draining,omitempty"`
	Persistence string `json:"persistence,omitempty"`
}

// --- Helpers ---------------------------------------------------------------

func effectiveBound(cfg analysis.Config) int {
	if cfg.UnfoldBound > 0 {
		return cfg.UnfoldBound
	}
	return btp.DefaultUnfoldBound
}

func newGraphStats(g *summary.Graph) GraphStats {
	st := g.Stats()
	return GraphStats{Nodes: st.Nodes, Edges: st.Edges, CounterflowEdges: st.CounterflowEdges}
}

func shortNames(programs []*btp.Program) []string {
	out := make([]string, len(programs))
	for i, p := range programs {
		out[i] = p.ShortName()
	}
	return out
}

func subsetsToWire(subsets []analysis.Subset) [][]string {
	out := make([][]string, len(subsets))
	for i, s := range subsets {
		out[i] = []string(s)
	}
	return out
}
