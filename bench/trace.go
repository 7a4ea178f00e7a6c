package bench

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call: a request's round trip, or one call into a
// module's public functions. Spans of one request share Req; Parent links
// a span to the span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Req    uint64 `json:"request"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory until the run ends.
type tracer struct {
	t0   time.Time
	reqs atomic.Uint64
	mu   sync.Mutex
	all  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newRequest returns a fresh request id.
func (t *tracer) newRequest() uint64 { return t.reqs.Add(1) }

// record stores a finished span and returns its id.
func (t *tracer) record(req, parent uint64, name string, start, end time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.all) + 1)
	t.all = append(t.all, span{ID: id, Req: req, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(req, parent uint64, name string) uint64 {
	now := time.Now()
	return t.record(req, parent, name, now, now)
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(id uint64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.all[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// leaf times f as a span without children.
func (t *tracer) leaf(req, parent uint64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(req, parent, name, start, end)
	return end.Sub(start)
}

// durations lists the durations of every span with the name, in µs.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.all {
		if s.Name == name {
			out = append(out, durUS(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

// selfTimes reports, per span name, the median self time: a span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() []Metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string][]float64{}
	for _, s := range t.all {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		reach := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] = append(self[s.Name], durUS(time.Duration(s.End-s.Start-covered)))
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Metric, 0, len(names))
	for _, n := range names {
		out = append(out, Metric{"self_us." + n, quantile(self[n], 0.5), "us", len(self[n])})
	}
	return out
}

// write stores every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
