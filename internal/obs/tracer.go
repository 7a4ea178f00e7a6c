package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Phase names emitted by the analysis engine and the server. They form a
// small fixed taxonomy (documented in docs/ARCHITECTURE.md) so every sink —
// the /metrics phase histogram, the slog phase logs, the ?debug=timings
// response block — agrees on the vocabulary.
const (
	// PhaseValidateUnfold covers template validation and unfolding into
	// the LTP universe (the input to Algorithm 1).
	PhaseValidateUnfold = "validate_unfold"
	// PhasePairs covers Algorithm 1 pair derivation: filling missing
	// pairwise edge blocks. It is a sub-span of compose — pairs time is
	// included in compose time, and a fully warm block cache emits no
	// pairs span at all.
	PhasePairs = "pairs"
	// PhaseCompose covers summary-graph composition (block scan + graph
	// assembly), including any pairs sub-span.
	PhaseCompose = "compose"
	// PhaseDetect covers Algorithm 2 type-II cycle detection, one span
	// per detector run (a subsets request emits one per undecided
	// subset).
	PhaseDetect = "detect"
	// PhaseLatticeLevel covers one level of the subset lattice walk
	// (schedule + process + emit), one span per level.
	PhaseLatticeLevel = "lattice_level"
	// PhaseFirstVerdict is the time from the start of a streamed
	// enumeration to its first emitted verdict (time-to-first-verdict).
	PhaseFirstVerdict = "first_verdict"
	// PhaseFlush covers one snapshot persistence to the state dir.
	PhaseFlush = "snapshot_flush"
)

// Tracer receives phase spans from the engine. Implementations must be safe
// for concurrent use: one tracer may serve concurrent requests, as the
// server's shared phase histogram does.
//
// The no-op default is a nil Tracer: instrumented code branches on nil
// before calling time.Now, so a disabled tracer adds neither time nor
// allocations to the hot paths.
type Tracer interface {
	Span(phase string, d time.Duration)
}

// PhaseTiming is the aggregate of one phase's spans in a SpanRecorder
// snapshot.
type PhaseTiming struct {
	Phase string
	Count uint64
	Total time.Duration
}

// SpanRecorder is a Tracer that aggregates spans per phase, backing the
// ?debug=timings response block and robustcheck -timings.
type SpanRecorder struct {
	mu sync.Mutex
	m  map[string]*PhaseTiming
}

// NewSpanRecorder creates an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{m: make(map[string]*PhaseTiming)}
}

// Span implements Tracer.
func (r *SpanRecorder) Span(phase string, d time.Duration) {
	r.mu.Lock()
	pt, ok := r.m[phase]
	if !ok {
		pt = &PhaseTiming{Phase: phase}
		r.m[phase] = pt
	}
	pt.Count++
	pt.Total += d
	r.mu.Unlock()
}

// Snapshot returns the aggregated timings sorted by phase name.
func (r *SpanRecorder) Snapshot() []PhaseTiming {
	r.mu.Lock()
	out := make([]PhaseTiming, 0, len(r.m))
	for _, pt := range r.m {
		out = append(out, *pt)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}

// multiTracer fans one span out to several sinks.
type multiTracer []Tracer

func (m multiTracer) Span(phase string, d time.Duration) {
	for _, t := range m {
		t.Span(phase, d)
	}
}

// Multi combines tracers, dropping nils: it returns nil when none remain
// and the tracer itself when exactly one does, so callers keep the nil-fast
// no-op default without special-casing.
func Multi(tracers ...Tracer) Tracer {
	var kept multiTracer
	for _, t := range tracers {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// ctxKey is the private context key namespace.
type ctxKey int

const (
	tracerKey ctxKey = iota
	requestIDKey
)

// WithTracer attaches a tracer to the context. The summary package reads it
// back with TracerFrom — the tracer crosses the analysis→summary boundary
// through the context, so summary's exported signatures stay unchanged.
func WithTracer(ctx context.Context, t Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil — callers branch on nil
// exactly as they would on a nil Config.Tracer.
func TracerFrom(ctx context.Context) Tracer {
	t, _ := ctx.Value(tracerKey).(Tracer)
	return t
}

// WithRequestID attaches the propagated X-Request-ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the context's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
