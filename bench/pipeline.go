package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/relschema"
	"repro/internal/snapshot"
	"repro/internal/sqlbtp"
	"repro/internal/wire"
)

// pipeline is the service decomposed: it answers the same requests as the
// server's handlers by calling the modules' public functions directly —
// wire decode, benchmark build or SQL compile, validation, fingerprint,
// the analysis session and wire encode — and records each call as a child
// span of the request's "pipeline.<op>" span. Whatever the in-process
// handler spends beyond these calls (routing, middleware, admission,
// registry, result cache) is the server's unattributed time.
type pipeline struct {
	ctx context.Context
	tr  *tracer
	// cap is the registry capacity the workload runs the server with: a
	// registration beyond it drops the least recently registered entry.
	cap      int
	entries  map[string]*pipelineEntry
	order    []string // least recently registered first
	sessions []*analysis.Session
}

type pipelineEntry struct {
	schema   *relschema.Schema
	programs []*btp.Program
	version  uint64
	sess     *analysis.Session
}

func newPipeline(ctx context.Context, tr *tracer, capacity int) *pipeline {
	return &pipeline{ctx: ctx, tr: tr, cap: capacity, entries: map[string]*pipelineEntry{}}
}

// target serves steps through the decomposed pipeline. Its results carry
// the time spent in wire decoding and in every other module call.
func (p *pipeline) target() target {
	return func(s *step) (result, error) {
		c := &calls{tr: p.tr, req: p.tr.newRequest()}
		c.root = p.tr.begin(c.req, 0, "pipeline."+s.op)
		r, err := p.serve(s, c)
		r.latency = p.tr.end(c.root)
		r.decode, r.work = c.decode, c.work
		return r, err
	}
}

// calls times one request's module calls as child spans of its root.
type calls struct {
	tr           *tracer
	req, root    uint64
	decode, work time.Duration
}

func (c *calls) call(name string, f func() error) error {
	var err error
	d := c.tr.leaf(c.req, c.root, name, func() { err = f() })
	if name == "wire.decode" {
		c.decode += d
	} else {
		c.work += d
	}
	return err
}

// decodeStrict decodes a request body the way the server does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (p *pipeline) serve(s *step, c *calls) (result, error) {
	u, err := url.Parse(s.path)
	if err != nil {
		return result{}, err
	}
	call := c.call
	var buf bytes.Buffer
	encode := func(v any) error { return call("wire.encode", func() error { return wire.WriteJSON(&buf, v) }) }
	// reply encodes v (unless the body is already written) and answers 200
	// with the entry's version header.
	reply := func(e *pipelineEntry, v any) (result, error) {
		if v != nil {
			if err := encode(v); err != nil {
				return result{}, err
			}
		}
		h := http.Header{}
		h.Set("X-Workload-Version", strconv.FormatUint(e.version, 10))
		return result{status: http.StatusOK, header: h, body: buf.Bytes()}, nil
	}
	if s.op == "register" {
		return p.register(u.Path, s.body, call, encode, &buf)
	}
	id, rest, _ := strings.Cut(strings.TrimPrefix(u.Path, "/v1/workloads/"), "/")
	e := p.entries[id]
	if e == nil {
		return result{}, fmt.Errorf("pipeline: no workload %q", id)
	}
	switch s.op {
	case "info": // GET /v1/workloads/{id}: the ladder reads versions, nothing is timed
		return result{status: http.StatusOK, body: mustJSON(wire.WorkloadStats{ID: id, Version: e.version})}, nil
	case "check", "subsets":
		var cr wire.CheckRequest
		var cfg analysis.Config
		if err := call("wire.decode", func() error {
			if err := decodeStrict(s.body, &cr); err != nil {
				return err
			}
			cfg, err = cr.Config()
			return err
		}); err != nil {
			return result{}, err
		}
		programs, err := e.resolve(cr.Programs)
		if err != nil {
			return result{}, err
		}
		if s.op == "check" {
			var res *analysis.Result
			if err := call("analysis.check", func() (err error) {
				res, err = e.sess.CheckCtx(p.ctx, programs, cfg)
				return err
			}); err != nil {
				return result{}, err
			}
			return reply(e, wire.NewCheckResponse(cfg, programs, res))
		}
		var rep *analysis.SubsetReport
		if err := call("analysis.subsets", func() (err error) {
			rep, err = e.sess.RobustSubsetsCtx(p.ctx, programs, cfg)
			return err
		}); err != nil {
			return result{}, err
		}
		return reply(e, wire.NewSubsetsResponse(cfg, programs, rep))
	case "stream":
		var sr wire.StreamRequest
		var cfg analysis.Config
		var mode analysis.StreamMode
		if err := call("wire.decode", func() error {
			q := u.Query()
			sr.Setting, sr.Method, sr.Mode = q.Get("setting"), q.Get("method"), q.Get("mode")
			if cfg, err = sr.Config(); err != nil {
				return err
			}
			mode, err = wire.ParseStreamMode(sr.Mode)
			return err
		}); err != nil {
			return result{}, err
		}
		programs, err := e.resolve(nil)
		if err != nil {
			return result{}, err
		}
		line := func(v any) error {
			b, err := json.Marshal(v)
			buf.Write(b)
			buf.WriteByte('\n')
			return err
		}
		// The stream span stays open while its first-verdict child is
		// recorded; each line's encoding is part of the stream.
		stream := p.tr.begin(c.req, c.root, "analysis.stream")
		start, first := time.Now(), true
		sum, err := e.sess.RobustSubsetsStream(p.ctx, programs, cfg, analysis.StreamOptions{Mode: mode}, func(v analysis.StreamVerdict) error {
			if first {
				p.tr.record(c.req, stream, "analysis.first_verdict", start, time.Now())
				first = false
			}
			return line(wire.NewStreamVerdictRecord(v))
		})
		if err == nil {
			err = line(wire.NewStreamSummaryRecord(cfg, programs, mode, sum))
		}
		c.work += p.tr.end(stream)
		if err != nil {
			return result{}, err
		}
		return reply(e, nil)
	case "patch":
		name := strings.TrimPrefix(rest, "programs/")
		var pr wire.PatchProgramRequest
		if err := call("wire.decode", func() error { return decodeStrict(s.body, &pr) }); err != nil {
			return result{}, err
		}
		var (
			old  *btp.Program
			next []*btp.Program
		)
		if err := call("sqlbtp.parse", func() (err error) {
			old, next, err = patchProgram(e.schema, e.programs, name, pr.SQL)
			return err
		}); err != nil {
			return result{}, fmt.Errorf("pipeline: workload %s: %w", id, err)
		}
		var invalidated int
		call("analysis.invalidate", func() error { invalidated = e.sess.Invalidate(old); return nil })
		e.programs = next
		e.version++
		return reply(e, wire.PatchProgramResponse{Program: name, Version: e.version, InvalidatedPairs: invalidated})
	}
	return result{}, fmt.Errorf("pipeline: no decomposition of %s requests", s.op)
}

// register builds the workload from a benchmark name or SQL, validates and
// fingerprints it, and admits it to the pipeline's registry.
func (p *pipeline) register(path string, body []byte, call func(string, func() error) error, encode func(any) error, buf *bytes.Buffer) (result, error) {
	var (
		schema   *relschema.Schema
		programs []*btp.Program
	)
	if strings.HasSuffix(path, ":fromSQL") {
		var fr wire.FromSQLRequest
		if err := call("wire.decode", func() error { return decodeStrict(body, &fr) }); err != nil {
			return result{}, err
		}
		if err := call("sqlbtp.compile", func() error {
			wl, err := sqlbtp.Compile(sqlbtp.Source{Dialect: fr.Dialect, Script: fr.Script})
			if err == nil {
				schema, programs = wl.Schema, wl.Programs
			}
			return err
		}); err != nil {
			return result{}, err
		}
	} else {
		var rr wire.RegisterWorkloadRequest
		if err := call("wire.decode", func() error { return decodeStrict(body, &rr) }); err != nil {
			return result{}, err
		}
		if err := call("benchmarks.build", func() error {
			b, err := benchmarks.ByName(rr.Benchmark, rr.N)
			if err == nil {
				schema, programs = b.Schema, b.Programs
			}
			return err
		}); err != nil {
			return result{}, err
		}
	}
	if err := call("btp.validate", func() error {
		for _, q := range programs {
			if err := q.Validate(schema); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return result{}, err
	}
	var id string
	call("snapshot.fingerprint", func() error { id = snapshot.Fingerprint(schema, programs); return nil })
	e, created := p.admit(id, schema, programs)
	names := make([]string, len(e.programs))
	for i, q := range e.programs {
		names[i] = q.Name
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	err := encode(wire.RegisterWorkloadResponse{ID: id, Created: created, Version: e.version, Programs: names})
	return result{status: status, body: buf.Bytes()}, err
}

// admit returns the registered entry for id, creating it (and dropping the
// least recently registered entry beyond the capacity) when absent.
func (p *pipeline) admit(id string, schema *relschema.Schema, programs []*btp.Program) (*pipelineEntry, bool) {
	if i := slices.Index(p.order, id); i >= 0 {
		p.order = append(slices.Delete(p.order, i, i+1), id)
		return p.entries[id], false
	}
	e := &pipelineEntry{schema: schema, programs: programs, sess: analysis.NewSession(schema)}
	p.entries[id] = e
	p.sessions = append(p.sessions, e.sess)
	p.order = append(p.order, id)
	if len(p.order) > p.cap {
		delete(p.entries, p.order[0])
		p.order = p.order[1:]
	}
	return e, true
}

// resolve maps full names or abbreviations to programs; none means all.
func (e *pipelineEntry) resolve(names []string) ([]*btp.Program, error) {
	if len(names) == 0 {
		return e.programs, nil
	}
	out := make([]*btp.Program, len(names))
	for i, n := range names {
		j := slices.IndexFunc(e.programs, func(q *btp.Program) bool { return q.Name == n || q.Abbrev == n })
		if j < 0 {
			return nil, fmt.Errorf("pipeline: no program %q", n)
		}
		out[i] = e.programs[j]
	}
	return out, nil
}
