package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/robust"
	"repro/internal/sqlbtp"
	"repro/internal/wire"
)

// originalDepositChecking mirrors the benchmark's DepositChecking in the
// Appendix A dialect (so a patched workload can be patched back).
const originalDepositChecking = `
PROGRAM DepositChecking(:name, :amount):
  SELECT CustomerId INTO :c FROM Account WHERE Name = :name;  -- q9
  UPDATE Checking SET Balance = Balance + :amount WHERE CustomerId = :c;  -- q10
  -- @fk q10 = fC(q9)
COMMIT;
`

// patchedDepositChecking redirects the deposit into Savings — a
// semantically different program used as the PATCH payload.
const patchedDepositChecking = `
PROGRAM DepositChecking(:name, :amount):
  SELECT CustomerId INTO :c FROM Account WHERE Name = :name;  -- q1
  UPDATE Savings SET Balance = Balance + :amount WHERE CustomerId = :c;  -- q2
  -- @fk q2 = fS(q1)
COMMIT;
`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// doJSON performs one request with a JSON body and decodes the response
// into out (when non-nil), returning the raw body and response.
func doJSON(t *testing.T, method, url string, body, out any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		var buf bytes.Buffer
		if err := wire.WriteJSON(&buf, body); err != nil {
			t.Fatal(err)
		}
		rd = &buf
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp, raw
}

// registerSmallBank registers the SmallBank benchmark and returns its id.
func registerSmallBank(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	var reg wire.RegisterWorkloadResponse
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "smallbank"}, &reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d\n%s", resp.StatusCode, raw)
	}
	return reg.ID
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)
	var again wire.RegisterWorkloadResponse
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "smallbank"}, &again)
	if resp.StatusCode != http.StatusOK || again.Created || again.ID != id {
		t.Fatalf("re-register: %d created=%t id=%s (want 200, false, %s)",
			resp.StatusCode, again.Created, again.ID, id)
	}
	if len(again.Programs) != 5 {
		t.Fatalf("programs = %v", again.Programs)
	}
}

func TestCheckEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	// Full set under the default configuration: not robust.
	var full wire.CheckResponse
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, &full)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: %d", resp.StatusCode)
	}
	if full.Robust || full.Witness == nil || full.Graph.Nodes != 5 {
		t.Fatalf("full SmallBank: %+v", full)
	}
	if v := resp.Header.Get("X-Workload-Version"); v != "0" {
		t.Errorf("version header = %q, want 0", v)
	}

	// The robust subset of Figure 6, by abbreviation.
	var sub wire.CheckResponse
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check",
		&wire.CheckRequest{Programs: []string{"Am", "DC", "TS"}}, &sub)
	if resp.StatusCode != http.StatusOK || !sub.Robust || sub.Witness != nil {
		t.Fatalf("{Am,DC,TS}: %d %+v", resp.StatusCode, sub)
	}

	// Unknown program and bad setting are client errors.
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check",
		&wire.CheckRequest{Programs: []string{"Nope"}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown program: %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check",
		&wire.CheckRequest{Setting: "bogus"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad setting: %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/nope/check", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown workload: %d", resp.StatusCode)
	}
}

// TestSubsetsWarmCache is the serving half of the acceptance criterion: a
// registered workload answers a repeated /subsets request byte-identically
// from the result cache (one hit, no second enumeration), and a subsequent
// /check composes its graph from the warm BlockSet underneath.
func TestSubsetsWarmCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	resp1, raw1 := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil)
	resp2, raw2 := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("subsets: %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Error("repeated /subsets responses differ")
	}
	var rep wire.SubsetsResponse
	if err := json.Unmarshal(raw1, &rep); err != nil {
		t.Fatal(err)
	}
	// Figure 6, attr+fk row: {Am, DC, TS} is a maximal robust subset.
	found := false
	for _, m := range rep.Maximal {
		if fmt.Sprint(m) == fmt.Sprint([]string{"Am", "DC", "TS"}) {
			found = true
		}
	}
	if !found {
		t.Errorf("maximal subsets %v missing {Am, DC, TS}", rep.Maximal)
	}

	// A full-set check now composes its summary graph purely from the
	// blocks the enumeration cached.
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("check: %d", resp.StatusCode)
	}

	var st wire.StatsResponse
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	if st.Workloads != 1 || len(st.WorkloadStats) != 1 {
		t.Fatalf("stats workloads = %+v", st)
	}
	ws := st.WorkloadStats[0]
	// The repeated enumeration is exactly one result-cache hit; the first
	// was its only miss.
	if ws.ResultCache.Hits != 1 || ws.ResultCache.Misses != 1 || ws.ResultCache.Entries != 1 {
		t.Errorf("result cache = %+v, want 1 hit / 1 miss / 1 entry", ws.ResultCache)
	}
	if ws.Cache.Hits == 0 {
		t.Error("post-enumeration /check should hit the warm BlockSet (cache hits = 0)")
	}
	if ws.Cache.Pairs != 25 || ws.Cache.Misses != 25 {
		t.Errorf("cache = %+v, want 25 pairs / 25 misses", ws.Cache)
	}
	if ws.Subsets != 2 || st.Requests.Subsets != 2 {
		t.Errorf("subsets counters = %d / %d, want 2", ws.Subsets, st.Requests.Subsets)
	}
	if ws.SizeBytes <= 0 || st.TotalSizeBytes != ws.SizeBytes {
		t.Errorf("size accounting: workload %d, total %d", ws.SizeBytes, st.TotalSizeBytes)
	}
}

// TestPatchIncrementalReanalysis is the PATCH half of the acceptance
// criterion: patching one program invalidates exactly its LTP pairs, the
// next check recomputes only those (miss delta), and the post-patch
// verdicts match a fresh naive-oracle run over the patched program set.
func TestPatchIncrementalReanalysis(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	// Warm all 25 pairs.
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm subsets: %d", resp.StatusCode)
	}

	var patch wire.PatchProgramResponse
	resp, raw := doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+id+"/programs/DepositChecking",
		&wire.PatchProgramRequest{SQL: patchedDepositChecking}, &patch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d\n%s", resp.StatusCode, raw)
	}
	if patch.InvalidatedPairs != 9 || patch.Version != 1 || patch.Program != "DepositChecking" {
		t.Fatalf("patch = %+v, want 9 invalidated pairs at version 1", patch)
	}

	var before wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &before)

	var check wire.CheckResponse
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, &check)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-patch check: %d", resp.StatusCode)
	}
	if v := resp.Header.Get("X-Workload-Version"); v != "1" {
		t.Errorf("post-patch version header = %q, want 1", v)
	}

	var after wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &after)
	missDelta := after.WorkloadStats[0].Cache.Misses - before.WorkloadStats[0].Cache.Misses
	if missDelta != 9 {
		t.Errorf("post-patch check recomputed %d pairs, want only the 9 involving the patched program", missDelta)
	}
	if got := after.WorkloadStats[0].Cache.Invalidated; got != 9 {
		t.Errorf("invalidated counter = %d, want 9", got)
	}

	// Fresh naive oracle over the patched program set.
	bench := benchmarks.SmallBank()
	next, err := sqlbtp.ParseProgram(bench.Schema, patchedDepositChecking)
	if err != nil {
		t.Fatal(err)
	}
	next.Abbrev = "DC"
	patched := bench.Programs
	for i, p := range patched {
		if p.Name == "DepositChecking" {
			patched[i] = next
		}
	}
	oracle := robust.NewChecker(bench.Schema)
	want, err := oracle.Check(patched)
	if err != nil {
		t.Fatal(err)
	}
	if check.Robust != want.Robust {
		t.Errorf("post-patch verdict robust=%t, oracle=%t", check.Robust, want.Robust)
	}

	// Patch name mismatches and bad SQL are client errors.
	resp, _ = doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+id+"/programs/Balance",
		&wire.PatchProgramRequest{SQL: patchedDepositChecking}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched patch: %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+id+"/programs/DepositChecking",
		&wire.PatchProgramRequest{SQL: "PROGRAM Broken"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken patch: %d", resp.StatusCode)
	}
}

func TestRegisterCustomSchema(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := &wire.RegisterWorkloadRequest{
		Schema: &wire.Schema{
			Relations: []wire.Relation{
				{Name: "Accounts", Attrs: []string{"Id", "Bal"}, Key: []string{"Id"}},
			},
		},
		ProgramsSQL: `
PROGRAM Deposit(:id, :amount):
  UPDATE Accounts SET Bal = Bal + :amount WHERE Id = :id;
COMMIT;

PROGRAM Audit(:id):
  SELECT Bal INTO :b FROM Accounts WHERE Id = :id;
COMMIT;
`,
	}
	var reg wire.RegisterWorkloadResponse
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", req, &reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register custom: %d\n%s", resp.StatusCode, raw)
	}
	if fmt.Sprint(reg.Programs) != fmt.Sprint([]string{"Deposit", "Audit"}) {
		t.Fatalf("programs = %v", reg.Programs)
	}
	var check wire.CheckResponse
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+reg.ID+"/check", nil, &check)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check custom: %d", resp.StatusCode)
	}
}

func TestRegisterErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, req := range map[string]*wire.RegisterWorkloadRequest{
		"empty":         {},
		"bad benchmark": {Benchmark: "bogus"},
		"bad sql": {Benchmark: "smallbank",
			ProgramsSQL: "PROGRAM Broken(:x):\n  SELECT Bal INTO :b FROM Nowhere WHERE Id = :x;\nCOMMIT;"},
	} {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWorkloads: 2})
	idSB := registerSmallBank(t, ts)
	var reg wire.RegisterWorkloadResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "tpcc"}, &reg)
	// Touch SmallBank so TPC-C is least recently used, then overflow.
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+idSB+"/check", nil, nil)
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "auction"}, nil)

	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+reg.ID+"/check", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted TPC-C still answers: %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+idSB+"/check", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("resident SmallBank gone: %d", resp.StatusCode)
	}
	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st)
	if st.Workloads != 2 || st.Evictions != 1 {
		t.Errorf("stats after eviction: workloads=%d evictions=%d", st.Workloads, st.Evictions)
	}
}

func TestGetWorkload(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)
	var ws wire.WorkloadStats
	resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/workloads/"+id, nil, &ws)
	if resp.StatusCode != http.StatusOK || ws.ID != id || len(ws.Programs) != 5 {
		t.Fatalf("get workload: %d %+v", resp.StatusCode, ws)
	}
}

// TestRegisterAbbrevEqualsName: a program whose abbreviation equals its
// own name must not be rejected as a duplicate of itself.
func TestRegisterAbbrevEqualsName(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	bench := benchmarks.SmallBank()
	p := bench.Program("Balance")
	p.Abbrev = p.Name
	defer func() { p.Abbrev = "Bal" }()
	if _, err := s.Register(bench.Schema, []*btp.Program{p}); err != nil {
		t.Fatalf("self-colliding abbreviation rejected: %v", err)
	}
}

// TestCheckRejectsDuplicateSelection: a full name and its abbreviation
// resolve to the same program; selecting both must be a client error, not
// a malformed two-node enumeration.
func TestCheckRejectsDuplicateSelection(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)
	for _, path := range []string{"check", "subsets"} {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/"+path,
			&wire.CheckRequest{Programs: []string{"DC", "DepositChecking"}}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with duplicate selection: %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestReRegisterResetsDrift: re-registering pristine content after a PATCH
// must restore the registered programs instead of silently answering with
// the drifted ones.
func TestReRegisterResetsDrift(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	var patch wire.PatchProgramResponse
	resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+id+"/programs/DepositChecking",
		&wire.PatchProgramRequest{SQL: patchedDepositChecking}, &patch)
	if resp.StatusCode != http.StatusOK || patch.Version != 1 {
		t.Fatalf("patch: %d version=%d", resp.StatusCode, patch.Version)
	}

	// Re-register the pristine benchmark: same id, but the drifted
	// workload is reset (version bumps again).
	var reg wire.RegisterWorkloadResponse
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "smallbank"}, &reg)
	if resp.StatusCode != http.StatusOK || reg.Created || reg.ID != id {
		t.Fatalf("re-register: %d created=%t id=%s", resp.StatusCode, reg.Created, reg.ID)
	}
	if reg.Version != 2 {
		t.Errorf("version after drift reset = %d, want 2", reg.Version)
	}

	// {Bal, DC} is robust for the original DC (Figure 6) but must be
	// checked against the restored definition, not the patched one.
	bench := benchmarks.SmallBank()
	oracle := robust.NewChecker(bench.Schema)
	want, err := oracle.Check([]*btp.Program{bench.Program("Balance"), bench.Program("DepositChecking")})
	if err != nil {
		t.Fatal(err)
	}
	var check wire.CheckResponse
	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check",
		&wire.CheckRequest{Programs: []string{"Bal", "DC"}}, &check)
	if resp.StatusCode != http.StatusOK || check.Robust != want.Robust {
		t.Errorf("post-reset {Bal,DC}: %d robust=%t, oracle=%t", resp.StatusCode, check.Robust, want.Robust)
	}

	// Re-registering again without drift must not bump the version.
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "smallbank"}, &reg)
	if reg.Version != 2 {
		t.Errorf("version after no-drift re-register = %d, want 2", reg.Version)
	}
}

// TestPatchSessionRotation: after sessionRotatePatches patches the
// workload swaps in a fresh session, shedding the stale bookkeeping the
// patch history accrued.
func TestPatchSessionRotation(t *testing.T) {
	bench := benchmarks.SmallBank()
	w := newWorkload(bench.Schema, bench.Programs)
	first := w.session()
	bodies := []string{patchedDepositChecking, originalDepositChecking}
	for i := 0; i < sessionRotatePatches; i++ {
		if _, _, _, err := w.patch("DepositChecking", bodies[i%2]); err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		rotated := w.session() != first
		if want := i == sessionRotatePatches-1; rotated != want {
			t.Fatalf("after patch %d: rotated=%t, want %t", i+1, rotated, want)
		}
	}
	if st := w.session().Stats(); st.Programs != 0 || st.Blocks.Pairs != 0 {
		t.Errorf("fresh session carries state: %+v", st)
	}
}

// TestCertifyEndpoint drives POST /v1/workloads/{id}/certify through its
// three verdicts: a certified counterexample for the non-robust {Bal,Am}
// pair (newly certified exactly once), a robust short-circuit for {Bal},
// and the stats counters the requests leave behind.
func TestCertifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	var first wire.CertifyResponse
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal", "Am"}}}, &first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: %d\n%s", resp.StatusCode, raw)
	}
	if v := resp.Header.Get("X-Workload-Version"); v != "0" {
		t.Errorf("version header = %q, want 0", v)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("certify response carries no X-Request-ID")
	}
	if first.Status != "certified" || !first.NewlyCertified {
		t.Fatalf("certify {Bal,Am}: %+v, want certified + newly_certified", first)
	}
	if fmt.Sprint(first.Core) != "[Am Bal]" {
		t.Errorf("core = %v, want [Am Bal]", first.Core)
	}
	c := first.Certificate
	if c == nil || c.Schedule == "" || c.Recorded == "" || len(c.Cycle) < 2 {
		t.Fatalf("certificate = %+v, want schedule + recorded + cycle", c)
	}

	// Re-certifying the same core is idempotent on the provenance bit.
	var again wire.CertifyResponse
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal", "Am"}}}, &again); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-certify: %d", resp.StatusCode)
	}
	if again.Status != "certified" || again.NewlyCertified {
		t.Errorf("re-certify: %+v, want certified without newly_certified", again)
	}

	// A robust subset has nothing to certify.
	var robustResp wire.CertifyResponse
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal"}}}, &robustResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("certify {Bal}: %d", resp.StatusCode)
	}
	if robustResp.Status != "robust" || robustResp.Certificate != nil || robustResp.NewlyCertified {
		t.Errorf("certify {Bal}: %+v, want plain robust verdict", robustResp)
	}

	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st)
	if st.Requests.Certify != 3 {
		t.Errorf("requests.certify = %d, want 3", st.Requests.Certify)
	}
	if st.CertifiedCores != 1 {
		t.Errorf("certified_cores = %d, want 1", st.CertifiedCores)
	}
	if st.UnrealizedCandidates != 0 {
		t.Errorf("unrealized_candidates = %d, want 0", st.UnrealizedCandidates)
	}
	if len(st.WorkloadStats) != 1 || st.WorkloadStats[0].Cache.Cores.CertifiedCores != 1 {
		t.Errorf("workload core stats = %+v, want certified_cores 1", st.WorkloadStats)
	}

	// The subsets report now carries the certified tally for the same
	// session, and its core list still covers the certified pair.
	var subs wire.SubsetsResponse
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, &subs); resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets: %d", resp.StatusCode)
	}
	if subs.CertifiedCores != 1 {
		t.Errorf("subsets certified_cores = %d, want 1", subs.CertifiedCores)
	}
}

// TestCertifyErrors covers the endpoint's failure paths: unknown workload,
// unknown program and a malformed configuration.
func TestCertifyErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/nope/certify", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown workload: %d, want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Nope"}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown program: %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Setting: "bogus"}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus setting: %d, want 400", resp.StatusCode)
	}
}
