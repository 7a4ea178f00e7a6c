package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/wire"
)

// This file is the streaming face of the subsets enumeration:
// GET/POST /v1/workloads/{id}/subsets:stream serves the lattice walk as
// NDJSON — one wire.StreamVerdictRecord per line the moment the engine
// decides the subset, then one wire.StreamSummaryRecord (marked
// "summary": true) — so clients see the first verdicts long before the
// exponential sweep completes, and early-termination modes (mode=
// first_non_robust, all_maximal_robust, top_k, or a max_subsets budget)
// skip the rest of the sweep entirely.
//
// Streams sit outside the result cache and the in-flight coalescing:
// verdict timing is the product, so every stream runs the engine under
// its own request context — a client disconnect cancels the lattice walk
// at the next emission. The cache interplay is one-directional: a
// completed mode=all stream assembles the equivalent /subsets response
// and stores it, so the next monolithic request is a cache hit; an
// early-terminated stream contributes only the minimal non-robust cores
// it minted (merged into the session store, persisted by the debounced
// flusher), never a result-cache entry — its verdict set is partial.

// lineBufPool recycles the NDJSON line buffers and the response-encode
// buffers of the subsets handlers (the wire side of the allocs/op work;
// the engine side reuses its walk workers' bitsets across levels).
var lineBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getLineBuf() *bytes.Buffer {
	b := lineBufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putLineBuf(b *bytes.Buffer) { lineBufPool.Put(b) }

// streamRequest decodes the request from the JSON body (POST) or the
// query string (GET; programs may be repeated or comma-separated).
func streamRequest(rw http.ResponseWriter, r *http.Request) (*wire.StreamRequest, error) {
	var req wire.StreamRequest
	if r.Method == http.MethodPost {
		if err := decodeBody(rw, r, &req, true); err != nil {
			return nil, err
		}
		return &req, nil
	}
	q := r.URL.Query()
	req.Setting = q.Get("setting")
	req.Method = q.Get("method")
	req.Mode = q.Get("mode")
	for _, v := range q["programs"] {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				req.Programs = append(req.Programs, name)
			}
		}
	}
	for _, f := range []struct {
		key string
		dst *int
	}{
		{"unfold_bound", &req.UnfoldBound},
		{"parallelism", &req.Parallelism},
		{"k", &req.K},
		{"max_subsets", &req.MaxSubsets},
	} {
		v := q.Get(f.key)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.key, err)
		}
		*f.dst = n
	}
	return &req, nil
}

func (s *Server) handleSubsetsStream(rw http.ResponseWriter, r *http.Request) {
	w := s.lookup(rw, r)
	if w == nil {
		return
	}
	defer s.release(w)
	req, err := streamRequest(rw, r)
	if err != nil {
		badRequest(rw, err)
		return
	}
	mode, err := wire.ParseStreamMode(req.Mode)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if mode == analysis.StreamTopK && req.K <= 0 {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("mode top_k needs k > 0"))
		return
	}
	cfg, err := s.config(&req.CheckRequest)
	if err != nil {
		badRequest(rw, err)
		return
	}
	// Streams always run the engine, so they always trace: phase spans —
	// including first_verdict (time to first emitted line) — land in the
	// shared phase histogram. No SpanRecorder: there is no response document
	// to attach a timings block to.
	tracer, _ := s.requestTracer(r)
	cfg.Tracer = tracer
	programs, version, err := w.snapshot(req.Programs)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if !enumerable(rw, programs) || !s.admit(rw) {
		return
	}
	defer s.admitDone()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	// The header goes out before the first verdict: from here on errors can
	// only be reported in-band (a final {"error": ...} line) — the status
	// is already committed.
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.Header().Set("X-Workload-Version", fmt.Sprint(version))
	rw.WriteHeader(http.StatusOK)
	flusher, _ := rw.(http.Flusher)
	writeLine := func(v any) error {
		buf := getLineBuf()
		defer putLineBuf(buf)
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
		if _, err := rw.Write(buf.Bytes()); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	opts := analysis.StreamOptions{Mode: mode, K: req.K, MaxSubsets: req.MaxSubsets}
	sum, err := w.session().RobustSubsetsStream(ctx, programs, cfg, opts, func(v analysis.StreamVerdict) error {
		return writeLine(wire.NewStreamVerdictRecord(v))
	})
	s.streamed.Add(1)
	w.subsets.Add(1)
	w.lastParallelism.Store(int64(effectiveParallelism(cfg.Parallelism)))
	// Whatever happened, cores minted before the exit are in the session
	// store now; queue the workload so the debounced flusher persists them.
	s.markDirty(w)
	if err != nil {
		// A dead client never sees this line; a live one (engine error,
		// e.g. an unknown program after a racing PATCH) gets the uniform
		// error envelope as the stream's last record. The status is long
		// committed, so a recovered worker panic can only be flagged
		// in-band — but it still counts and logs as a server fault.
		line := wire.Error{Error: err.Error()}
		if s.noteWorkerPanic(r, err) != nil {
			line.Code = "panic"
		}
		writeLine(line)
		return
	}
	if sum.Terminated {
		s.earlyTerms.Add(1)
	}
	if err := writeLine(wire.NewStreamSummaryRecord(cfg, programs, mode, sum)); err != nil {
		return
	}
	// A complete mode=all stream carries the exact monolithic report;
	// cross-populate the /subsets result cache so the next monolithic
	// request for this (version, config, selection) is a stored-bytes hit.
	if mode == analysis.StreamAll && !sum.Terminated && sum.Report != nil {
		key := requestKey(version, cfg, programs)
		buf := getLineBuf()
		if wire.WriteJSON(buf, wire.NewSubsetsResponse(cfg, programs, sum.Report)) == nil {
			body := append([]byte(nil), buf.Bytes()...)
			if w.results.put(key, version, body) {
				s.markDirty(w)
			}
		}
		putLineBuf(buf)
	}
}
