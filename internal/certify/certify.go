// Package certify closes the loop from static verdict to observable
// anomaly. Algorithm 2 is sound but incomplete: a non-robust verdict means
// a dangerous cycle exists in the summary graph, not that a concrete
// non-serializable execution does. The pipeline here takes any non-robust
// subset verdict, derives candidate instantiations from the witness cycle
// (internal/realize), searches their MVRC interleaving spaces
// (internal/enumerate), replays the found schedule through the concrete
// MVCC engine (internal/replay) and returns a machine-checkable
// Certificate — the abstract schedule, the engine-recorded execution and a
// conflict cycle in its serialization graph — or a deterministic
// Unrealized outcome naming the reason.
//
// A certified verdict flows back into the analysis session as a certified
// non-robust core (analysis.Session.CertifyCore): the provenance bit rides
// the same fact store and snapshots as the cores themselves, so later
// enumerations and stats report how many of their pruning facts are
// backed by replayed executions rather than static reasoning alone.
package certify

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/realize"
	"repro/internal/relschema"
	"repro/internal/replay"
	"repro/internal/schedule"
	"repro/internal/seg"
	"repro/internal/summary"
)

// MaxRequestSchedules caps the per-candidate interleaving budget a
// /certify request may ask for, and is the budget of one that names none.
// The search is linear in the budget (TPC-C {NO, OS} spends about 40 ms on
// 100,000 interleavings per candidate on 2 vCPUs), so a capped request ends
// far inside the server's default request timeout. Options.MaxSchedules
// itself stays uncapped for in-process callers and robustcheck.
const MaxRequestSchedules = 100_000

// Options bound one certification attempt.
type Options struct {
	// MaxSchedules caps each candidate's interleaving search (0 = the
	// enumerate default).
	MaxSchedules int
	// Parallelism is ignored: the candidates are searched in order on the
	// caller's goroutine.
	Parallelism int
}

// Status classifies a certification attempt.
type Status int

// Statuses.
const (
	// Certified: a candidate instantiation admits an MVRC schedule whose
	// replay on the engine is not conflict serializable; the Certificate
	// holds the evidence.
	Certified Status = iota
	// Robust: the static analysis accepts the subset — there is nothing to
	// certify.
	Robust
	// Unrealized: no candidate realized the witness; Reason says whether
	// the searches were exhaustive (possible false negative of the static
	// analysis) or budget-bounded, or whether no instantiation applied.
	Unrealized
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Certified:
		return "certified"
	case Robust:
		return "robust"
	default:
		return "unrealized"
	}
}

// Deterministic Unrealized reasons. Reason strings start with one of these
// prefixes so callers (and the CI smoke test) can dispatch without parsing
// free text.
const (
	ReasonNoInstantiation = "no candidate instantiation applies"
	ReasonExhausted       = "exhausted: every candidate interleaving space searched, none non-serializable"
	ReasonBudget          = "budget: interleaving budget exhausted before a counterexample was found"
)

// Certificate is the machine-checkable artifact of a certified verdict.
// Verify re-derives everything from Schedule alone; the remaining fields
// record how the schedule was found and what the engine observed.
type Certificate struct {
	// Candidate names the instantiation strategy that found the schedule
	// ("canonical", "guided", or their "+extra" variants).
	Candidate string
	// Instances labels the instantiated transactions.
	Instances []string
	// Schedule is the abstract MVRC-allowed, non-serializable schedule the
	// search produced.
	Schedule *schedule.Schedule
	// Recorded is the schedule the MVCC engine's recorder captured while
	// replaying Schedule.
	Recorded *schedule.Schedule
	// Graph is the serialization graph of the recorded execution.
	Graph *seg.Graph
	// Cycle is one conflict cycle in Graph — the replayed anomaly.
	Cycle seg.Cycle
}

// Verify re-checks the certificate from scratch: the schedule must be
// allowed under MVRC, and an independent replay on a fresh engine must
// again be non-serializable with a findable conflict cycle. It depends
// only on Schedule, so a certificate round-tripped through serialization
// (or handed over by an untrusted prover) is checkable without trusting
// the recorded fields.
func (c *Certificate) Verify(schema *relschema.Schema) error {
	if c == nil || c.Schedule == nil {
		return errors.New("certify: certificate has no schedule")
	}
	if !c.Schedule.AllowedUnderMVRC() {
		return errors.New("certify: schedule is not allowed under MVRC")
	}
	rep, err := replay.Run(schema, c.Schedule)
	if err != nil {
		return fmt.Errorf("certify: replay failed: %w", err)
	}
	if rep.Serializable {
		return errors.New("certify: replayed execution is conflict serializable")
	}
	if _, ok := rep.Graph.FindCycle(); !ok {
		return errors.New("certify: replayed execution has no conflict cycle")
	}
	return nil
}

// Result reports one certification attempt.
type Result struct {
	Status Status
	// Core lists the short names of the programs on the witness cycle (the
	// program set the certificate, if any, speaks about), sorted. Empty
	// when Status == Robust.
	Core []string
	// Certificate holds the evidence when Status == Certified.
	Certificate *Certificate
	// Reason explains an Unrealized outcome; it starts with one of the
	// Reason* prefixes.
	Reason string
	// Candidates counts the instantiation strategies that were searched.
	Candidates int
	// Explored counts examined interleavings across all candidates.
	Explored int
	// NewlyCertified reports whether the session's fact store gained the
	// certified bit on this core (false when it was already certified, or
	// when the witness LTPs carry no origin programs to certify).
	NewlyCertified bool
}

// Subset certifies one program subset: it runs the static analysis through
// the session and, on a non-robust verdict, tries to realize the witness
// cycle into a replayed non-serializable execution. A certified core is
// recorded back into the session (Session.CertifyCore), so the provenance
// survives in snapshots and reaches later subset reports.
func Subset(ctx context.Context, sess *analysis.Session, cfg analysis.Config, programs []*btp.Program, opts Options) (*Result, error) {
	res, err := sess.CheckCtx(ctx, programs, cfg)
	if err != nil {
		return nil, err
	}
	if res.Robust {
		return &Result{Status: Robust}, nil
	}
	out, err := Witness(ctx, sess.Schema(), cfg.Setting, res.Witness, opts)
	if err != nil || out.Status != Certified {
		return out, err
	}
	if core, ok := corePrograms(res.Witness); ok {
		out.NewlyCertified = sess.CertifyCore(cfg, core)
	}
	return out, nil
}

// Witness drives the realize→search→replay pipeline for one witness cycle
// found in the given analysis setting. Unlike Subset it records nothing:
// NewlyCertified stays false.
func Witness(ctx context.Context, schema *relschema.Schema, setting summary.Setting, w *summary.Witness, opts Options) (*Result, error) {
	if w == nil || len(w.Cycle) == 0 {
		return nil, errors.New("certify: non-robust verdict without a witness")
	}
	out := &Result{Status: Unrealized, Core: coreNames(w)}

	// Witnesses from an FK-less analysis setting must be realized over the
	// same overapproximated space, so the annotations are ignored exactly
	// when the setting ignored them.
	cands, notes := realize.Candidates(schema, w, !setting.UseForeignKeys)
	out.Candidates = len(cands)
	if len(cands) == 0 {
		out.Reason = ReasonNoInstantiation
		if len(notes) > 0 {
			out.Reason += ": " + strings.Join(notes, "; ")
		}
		return out, nil
	}

	lists := make([][]enumerate.Instance, len(cands))
	for i, c := range cands {
		lists[i] = c.Instances
	}
	search, winner, err := enumerate.FindAnyCounterexampleCtx(ctx, schema, lists, 0, enumerate.Options{MaxSchedules: opts.MaxSchedules})
	if err != nil {
		return nil, err
	}
	out.Explored = search.Explored
	if !search.Found {
		if search.Exhausted {
			out.Reason = ReasonExhausted
		} else {
			out.Reason = ReasonBudget
		}
		return out, nil
	}

	// Replay the abstract counterexample on the concrete engine. The
	// recorded dependency structure is at least as rich as the abstract one
	// on the replayed tuples, so a serializable replay would mean the
	// abstract search and the engine disagree about the anomaly — a
	// soundness bug, not an Unrealized outcome.
	rep, err := replay.Run(schema, search.Schedule)
	if err != nil {
		return nil, fmt.Errorf("certify: replay of the found schedule failed: %w", err)
	}
	if rep.Serializable {
		return nil, fmt.Errorf("certify: abstract counterexample replayed serializable:\n%s", search.Schedule)
	}
	cycle, ok := rep.Graph.FindCycle()
	if !ok {
		return nil, errors.New("certify: non-serializable replay without a findable cycle")
	}

	cert := &Certificate{
		Candidate: cands[winner].Name,
		Schedule:  search.Schedule,
		Recorded:  rep.Recorded,
		Graph:     rep.Graph,
		Cycle:     cycle,
	}
	for _, inst := range cands[winner].Instances {
		cert.Instances = append(cert.Instances, inst.LTP.Name)
	}
	out.Status = Certified
	out.Certificate = cert
	return out, nil
}

// corePrograms collects the distinct origin programs on the witness cycle;
// ok is false when any LTP was built directly (no origin to certify).
func corePrograms(w *summary.Witness) ([]*btp.Program, bool) {
	var out []*btp.Program
	seen := map[*btp.Program]bool{}
	for _, e := range w.Cycle {
		p := e.From.Origin
		if p == nil {
			return nil, false
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out, len(out) > 0
}

// coreNames lists the short names of the programs on the witness cycle,
// sorted; LTPs without origin contribute their own names.
func coreNames(w *summary.Witness) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range w.Cycle {
		n := e.From.Name
		if e.From.Origin != nil {
			n = e.From.Origin.ShortName()
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
