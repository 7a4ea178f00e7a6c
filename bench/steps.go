package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// step is one request of a workload's traffic together with the check of
// its answer against the answer key.
type step struct {
	op     string // check, subsets, stream, metrics, register, patch, certify
	method string
	path   string
	body   []byte
	// verify checks one response; a non-nil error is a wrong answer.
	verify func(status int, header http.Header, body []byte) error
}

// result is one executed step.
type result struct {
	status  int
	header  http.Header
	body    []byte
	latency time.Duration
	// ttfv is the time from send to the first NDJSON line of a stream.
	ttfv time.Duration
	// decode and work split the decomposed pipeline's module calls into
	// wire decoding and everything else (zero for the other targets).
	decode, work time.Duration
}

// target executes steps: the server child over loopback, or the same
// server code in-process.
type target func(*step) (result, error)

// httpTarget sends steps to a server over HTTP.
func httpTarget(c *http.Client, base string) target {
	return func(s *step) (result, error) {
		req, err := http.NewRequest(s.method, base+s.path, bytes.NewReader(s.body))
		if err != nil {
			return result{}, err
		}
		t0 := time.Now()
		resp, err := c.Do(req)
		if err != nil {
			return result{}, err
		}
		defer resp.Body.Close()
		r := result{status: resp.StatusCode, header: resp.Header}
		br := bufio.NewReader(resp.Body)
		if s.op == "stream" {
			first, err := br.ReadBytes('\n')
			r.ttfv = time.Since(t0)
			if err != nil && err != io.EOF {
				return r, err
			}
			r.body = first
		}
		rest, err := io.ReadAll(br)
		r.latency = time.Since(t0)
		r.body = append(r.body, rest...)
		return r, err
	}
}

// handlerTarget serves steps through an in-process handler into a
// recorder: the server's routing, middleware, handlers and encoding
// without the loopback network.
func handlerTarget(h http.Handler) target {
	return func(s *step) (result, error) {
		req := httptest.NewRequest(s.method, s.path, bytes.NewReader(s.body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return result{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes(), latency: time.Since(t0)}, nil
	}
}

// run executes the step and checks its answer.
func (t target) run(s *step) (result, error) {
	r, err := t(s)
	if err != nil {
		return r, err
	}
	return r, s.verify(r.status, r.header, r.body)
}

// answerError marks a response that contradicts the answer key, as opposed
// to a failed, shed or timed-out request.
type answerError struct{ msg string }

func (e *answerError) Error() string { return e.msg }

func wrong(format string, args ...any) error {
	return &answerError{msg: fmt.Sprintf(format, args...)}
}

// statusError rejects an unexpected HTTP status; 429 and 504 are the
// server's shed and timeout answers, counted as failures, not wrong
// answers.
func statusError(status int, body []byte, want ...int) error {
	if slices.Contains(want, status) {
		return nil
	}
	msg := fmt.Sprintf("status %d, want %v: %s", status, want, bytes.TrimSpace(body))
	if status == http.StatusTooManyRequests || status == http.StatusGatewayTimeout {
		return fmt.Errorf("%s", msg)
	}
	return &answerError{msg: msg}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire request types always marshal
	}
	return b
}

// decode parses a JSON answer, reporting garbage as a wrong answer.
func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return wrong("undecodable answer: %v", err)
	}
	return nil
}

// answerKey resolves the answer-key entry a response was computed against,
// from its X-Workload-Version header.
func (e *Expected) answerKey(workload string, header http.Header) (*ExpWorkload, error) {
	v, err := strconv.ParseUint(header.Get("X-Workload-Version"), 10, 64)
	if err != nil {
		return nil, wrong("bad X-Workload-Version %q", header.Get("X-Workload-Version"))
	}
	w := e.Workloads[variantKey(workload, v)]
	if w == nil {
		return nil, wrong("workload %s answered at version %d, which the benchmark never installs", workload, v)
	}
	return w, nil
}

func workloadPath(id, suffix string) string { return "/v1/workloads/" + id + suffix }

// checkStep asks for the verdict of one program subset (a mask over the
// workload's programs) under one setting and method.
func (e *Expected) checkStep(workload string, mask int, setting, method string) *step {
	base := e.Workloads[workload]
	programs := base.names(mask)
	return &step{
		op: "check", method: http.MethodPost, path: workloadPath(base.ID, "/check"),
		body: mustJSON(wire.CheckRequest{Programs: programs, Setting: setting, Method: method}),
		verify: func(status int, header http.Header, body []byte) error {
			if err := statusError(status, body, http.StatusOK); err != nil {
				return err
			}
			w, err := e.answerKey(workload, header)
			if err != nil {
				return err
			}
			var resp wire.CheckResponse
			if err := decode(body, &resp); err != nil {
				return err
			}
			st := w.Settings[setting]
			want := st.Methods[method].robustMask[mask]
			switch {
			case resp.Setting != setting || resp.Method != method || !slices.Equal(resp.Programs, programs):
				return wrong("check %v %s %s answered for %v %s %s", programs, setting, method, resp.Programs, resp.Setting, resp.Method)
			case resp.Robust != want || (resp.Witness == nil) != want:
				return wrong("check %s %v %s %s: robust=%v, the oracle says %v", workload, programs, setting, method, resp.Robust, want)
			case resp.Graph.Edges != st.Edges[mask] || resp.Graph.CounterflowEdges != st.Counterflow[mask]:
				return wrong("check %s %v %s: %d edges (%d counterflow), the oracle builds %d (%d)", workload, programs, setting,
					resp.Graph.Edges, resp.Graph.CounterflowEdges, st.Edges[mask], st.Counterflow[mask])
			}
			return nil
		},
	}
}

// subsetsStep asks for the robust and maximal subsets of the full program
// set.
func (e *Expected) subsetsStep(workload, setting, method string) *step {
	base := e.Workloads[workload]
	return &step{
		op: "subsets", method: http.MethodPost, path: workloadPath(base.ID, "/subsets"),
		body: mustJSON(wire.CheckRequest{Setting: setting, Method: method}),
		verify: func(status int, header http.Header, body []byte) error {
			if err := statusError(status, body, http.StatusOK); err != nil {
				return err
			}
			w, err := e.answerKey(workload, header)
			if err != nil {
				return err
			}
			var resp wire.SubsetsResponse
			if err := decode(body, &resp); err != nil {
				return err
			}
			want := w.Settings[setting].Methods[method]
			if !slices.Equal(resp.Programs, w.Programs) || !equalLists(resp.Robust, want.Robust) || !equalLists(resp.Maximal, want.Maximal) {
				return wrong("subsets %s %s %s: robust %v maximal %v, the oracle says %v and %v",
					workload, setting, method, resp.Robust, resp.Maximal, want.Robust, want.Maximal)
			}
			return nil
		},
	}
}

func equalLists(a, b [][]string) bool {
	return slices.EqualFunc(a, b, func(x, y []string) bool { return slices.Equal(x, y) })
}

// streamStep opens a first_non_robust NDJSON stream over the full program
// set. Every verdict line must match the oracle, and the stream must stop
// at a smallest non-robust subset when the lattice has one.
func (e *Expected) streamStep(workload, setting, method string) *step {
	base := e.Workloads[workload]
	q := url.Values{"mode": {"first_non_robust"}, "setting": {setting}, "method": {method}}
	return &step{
		op: "stream", method: http.MethodGet, path: workloadPath(base.ID, "/subsets:stream?"+q.Encode()),
		verify: func(status int, header http.Header, body []byte) error {
			if err := statusError(status, body, http.StatusOK); err != nil {
				return err
			}
			w, err := e.answerKey(workload, header)
			if err != nil {
				return err
			}
			robust := w.Settings[setting].Methods[method].robustMask
			smallest := 0 // size of a smallest non-robust subset; 0 if none
			for m := 1; m < len(robust); m++ {
				if size := popcount(m); !robust[m] && (smallest == 0 || size < smallest) {
					smallest = size
				}
			}
			lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			var sum wire.StreamSummaryRecord
			if err := decode(lines[len(lines)-1], &sum); err != nil {
				return err
			}
			if !sum.Summary {
				return wrong("stream %s %s %s ended without a summary: %s", workload, setting, method, lines[len(lines)-1])
			}
			nonRobust := 0
			for i, line := range lines[:len(lines)-1] {
				var v wire.StreamVerdictRecord
				if err := decode(line, &v); err != nil {
					return err
				}
				m, ok := w.mask(v.Programs)
				if !ok || v.Robust != robust[m] {
					return wrong("stream %s %s %s: %v robust=%v, the oracle disagrees", workload, setting, method, v.Programs, v.Robust)
				}
				if !v.Robust {
					nonRobust++
					if i != len(lines)-2 || v.Size != smallest {
						return wrong("stream %s %s %s: non-robust %v is not a final smallest one", workload, setting, method, v.Programs)
					}
				}
			}
			if (smallest > 0) != (nonRobust == 1) || sum.EarlyTerminated != (smallest > 0) {
				return wrong("stream %s %s %s: %d non-robust verdicts, early_terminated=%v", workload, setting, method, nonRobust, sum.EarlyTerminated)
			}
			return nil
		},
	}
}

func popcount(m int) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// metricsStep scrapes the Prometheus endpoint.
func metricsStep() *step {
	return &step{
		op: "metrics", method: http.MethodGet, path: "/metrics",
		verify: func(status int, _ http.Header, body []byte) error {
			if err := statusError(status, body, http.StatusOK); err != nil {
				return err
			}
			if !bytes.Contains(body, []byte("mvrc_http_requests_total")) {
				return wrong("/metrics lacks mvrc_http_requests_total")
			}
			return nil
		},
	}
}

// registerStep registers a workload, from a named benchmark or through
// :fromSQL. A cold registration must create the workload.
func registerStep(path string, req any, id string, programs int, cold bool) *step {
	want := []int{http.StatusOK, http.StatusCreated}
	if cold {
		want = want[1:]
	}
	return &step{
		op: "register", method: http.MethodPost, path: path, body: mustJSON(req),
		verify: func(status int, _ http.Header, body []byte) error {
			if err := statusError(status, body, want...); err != nil {
				return err
			}
			var resp wire.RegisterWorkloadResponse
			if err := decode(body, &resp); err != nil {
				return err
			}
			if resp.ID != id || len(resp.Programs) != programs {
				return wrong("registered %s with %d programs, want %s with %d", resp.ID, len(resp.Programs), id, programs)
			}
			return nil
		},
	}
}

func (e *Expected) registerBenchmarkStep(name string, cold bool) *step {
	w := e.Workloads[name]
	return registerStep("/v1/workloads", wire.RegisterWorkloadRequest{Benchmark: name}, w.ID, len(w.Programs), cold)
}

// auctionNSteps registers Auction(n) cold and checks the full program set
// under the default configuration.
func auctionNSteps(a ExpAuctionN) []*step {
	reg := registerStep("/v1/workloads", wire.RegisterWorkloadRequest{Benchmark: "auction", N: a.N}, a.ID, a.Programs, true)
	check := &step{
		op: "check", method: http.MethodPost, path: workloadPath(a.ID, "/check"), body: []byte("{}"),
		verify: func(status int, _ http.Header, body []byte) error {
			if err := statusError(status, body, http.StatusOK); err != nil {
				return err
			}
			var resp wire.CheckResponse
			if err := decode(body, &resp); err != nil {
				return err
			}
			if resp.Robust != a.Robust || resp.Graph.Edges != a.Edges || resp.Graph.CounterflowEdges != a.Counterflow {
				return wrong("Auction(%d): robust=%v with %d edges (%d counterflow), want %v with %d (%d)",
					a.N, resp.Robust, resp.Graph.Edges, resp.Graph.CounterflowEdges, a.Robust, a.Edges, a.Counterflow)
			}
			return nil
		},
	}
	return []*step{reg, check}
}

// corpusSteps registers one corpus script cold through :fromSQL, checks
// the full program set and, for at most five programs, enumerates its
// subsets — all under the default configuration.
func (e *Expected) corpusSteps(c ExpCorpus, script string) []*step {
	w := e.Workloads[c.Workload]
	steps := []*step{
		registerStep("/v1/workloads:fromSQL", wire.FromSQLRequest{Dialect: c.Dialect, Script: script}, w.ID, len(w.Programs), true),
		e.checkStep(c.Workload, 1<<len(w.Programs)-1, "attr+fk", "type2"),
	}
	if len(w.Programs) <= 5 {
		steps = append(steps, e.subsetsStep(c.Workload, "attr+fk", "type2"))
	}
	return steps
}

// patchStep installs the variant of the patched program that belongs to
// the given (new) workload version.
func (e *Expected) patchStep(p patchSpec, version uint64) *step {
	w := e.Workloads[p.workload]
	return &step{
		op: "patch", method: http.MethodPatch, path: workloadPath(w.ID, "/programs/"+p.program),
		body: mustJSON(wire.PatchProgramRequest{SQL: p.sql(version)}),
		verify: func(status int, _ http.Header, body []byte) error {
			if err := statusError(status, body, http.StatusOK); err != nil {
				return err
			}
			var resp wire.PatchProgramResponse
			if err := decode(body, &resp); err != nil {
				return err
			}
			if resp.Program != p.program || resp.Version != version {
				return wrong("patch %s: program %s at version %d, want version %d", p.program, resp.Program, resp.Version, version)
			}
			return nil
		},
	}
}

// certifyStep certifies one minimal non-robust core under a bounded
// interleaving budget.
func (e *Expected) certifyStep(c ExpCore) *step {
	w := e.Workloads[c.Workload]
	req := wire.CertifyRequest{
		CheckRequest: wire.CheckRequest{Programs: c.Programs, Setting: c.Setting},
		MaxSchedules: e.MaxSchedules,
	}
	want := slices.Clone(c.Programs)
	sort.Strings(want)
	return &step{
		op: "certify", method: http.MethodPost, path: workloadPath(w.ID, "/certify"), body: mustJSON(req),
		verify: func(status int, _ http.Header, body []byte) error {
			if err := statusError(status, body, http.StatusOK); err != nil {
				return err
			}
			var resp wire.CertifyResponse
			if err := decode(body, &resp); err != nil {
				return err
			}
			if resp.Status != c.Status || (c.Status != "robust" && !slices.Equal(resp.Core, want)) {
				return wrong("certify %s %s %v: %s on core %v (%s), want %s", c.Workload, c.Setting, c.Programs,
					resp.Status, resp.Core, strings.TrimSpace(resp.Reason), c.Status)
			}
			return nil
		},
	}
}
