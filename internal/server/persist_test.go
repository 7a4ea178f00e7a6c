package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/robust"
	"repro/internal/sqlbtp"
	"repro/internal/wire"
)

// TestSnapshotRestartRoundTrip is the tentpole acceptance test: register →
// check → subsets, restart the server on the same -state-dir, and assert
// byte-identical wire responses — with the repeated enumeration answered
// from the persisted result cache, i.e. without re-running Algorithm 1 at
// all (BlockSet misses stay 0 after the restart).
func TestSnapshotRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, ts := newTestServer(t, Options{StateDir: dir})
	id := registerSmallBank(t, ts)

	// A second registration (what a client does after reconnecting).
	_, reReg1 := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "smallbank"}, nil)
	resp, check1 := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: %d", resp.StatusCode)
	}
	resp, subsets1 := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets: %d", resp.StatusCode)
	}
	// The newly cached enumeration is a debounced snapshot write; a real
	// restart goes through Close (which flushes) — force the flush here
	// because the first server stays up while the second boots.
	s1.Flush()

	// Restart: a fresh Server over the same state directory.
	s2, ts2 := newTestServer(t, Options{StateDir: dir})
	if loaded, skipped, err := s2.StateReport(); loaded != 1 || skipped != 0 || err != nil {
		t.Fatalf("StateReport = %d loaded, %d skipped, %v", loaded, skipped, err)
	}

	var reg wire.RegisterWorkloadResponse
	resp, reReg2 := doJSON(t, http.MethodPost, ts2.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "smallbank"}, &reg)
	if resp.StatusCode != http.StatusOK || reg.Created || reg.ID != id {
		t.Fatalf("post-restart register: %d created=%t id=%s (want resident %s)",
			resp.StatusCode, reg.Created, reg.ID, id)
	}
	if !bytes.Equal(reReg1, reReg2) {
		t.Errorf("re-register responses differ across restart:\n%s\nvs\n%s", reReg1, reReg2)
	}

	// The repeated enumeration must come from the persisted result cache:
	// byte-identical, and zero pairwise edge blocks computed since boot.
	resp, subsets2 := doJSON(t, http.MethodPost, ts2.URL+"/v1/workloads/"+id+"/subsets", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart subsets: %d", resp.StatusCode)
	}
	if !bytes.Equal(subsets1, subsets2) {
		t.Errorf("subsets responses differ across restart:\n%s\nvs\n%s", subsets1, subsets2)
	}
	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts2.URL+"/v1/stats", nil, &st)
	if st.SnapshotsLoaded != 1 {
		t.Errorf("snapshots_loaded = %d, want 1", st.SnapshotsLoaded)
	}
	ws := st.WorkloadStats[0]
	if ws.Cache.Misses != 0 || ws.Cache.Hits != 0 {
		t.Errorf("post-restart subsets ran Algorithm 1: block cache %+v, want untouched", ws.Cache)
	}
	if ws.ResultCache.Hits != 1 || ws.ResultCache.Misses != 0 {
		t.Errorf("post-restart result cache = %+v, want 1 hit / 0 misses", ws.ResultCache)
	}

	// A check has no result cache: it recomputes — and must still be
	// byte-identical (the analysis is deterministic).
	resp, check2 := doJSON(t, http.MethodPost, ts2.URL+"/v1/workloads/"+id+"/check", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart check: %d", resp.StatusCode)
	}
	if !bytes.Equal(check1, check2) {
		t.Errorf("check responses differ across restart:\n%s\nvs\n%s", check1, check2)
	}
}

// TestSnapshotPatchSurvivesRestart: a PATCHed workload reloads with its
// patched definition and version, and verdicts match a fresh oracle over
// the patched program set.
func TestSnapshotPatchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{StateDir: dir})
	id := registerSmallBank(t, ts)

	var patch wire.PatchProgramResponse
	resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+id+"/programs/DepositChecking",
		&wire.PatchProgramRequest{SQL: patchedDepositChecking}, &patch)
	if resp.StatusCode != http.StatusOK || patch.Version != 1 {
		t.Fatalf("patch: %d version=%d", resp.StatusCode, patch.Version)
	}

	_, ts2 := newTestServer(t, Options{StateDir: dir})
	var ws wire.WorkloadStats
	resp, _ = doJSON(t, http.MethodGet, ts2.URL+"/v1/workloads/"+id, nil, &ws)
	if resp.StatusCode != http.StatusOK || ws.Version != 1 {
		t.Fatalf("post-restart workload: %d version=%d, want version 1", resp.StatusCode, ws.Version)
	}

	// Oracle over the patched program set.
	bench := benchmarks.SmallBank()
	next, err := sqlbtp.ParseProgram(bench.Schema, patchedDepositChecking)
	if err != nil {
		t.Fatal(err)
	}
	next.Abbrev = "DC"
	patched := make([]*btp.Program, len(bench.Programs))
	copy(patched, bench.Programs)
	for i, p := range patched {
		if p.Name == "DepositChecking" {
			patched[i] = next
		}
	}
	want, err := robust.NewChecker(bench.Schema).Check(patched)
	if err != nil {
		t.Fatal(err)
	}
	var check wire.CheckResponse
	resp, _ = doJSON(t, http.MethodPost, ts2.URL+"/v1/workloads/"+id+"/check", nil, &check)
	if resp.StatusCode != http.StatusOK || check.Robust != want.Robust {
		t.Errorf("post-restart check robust=%t, oracle=%t", check.Robust, want.Robust)
	}
	if v := resp.Header.Get("X-Workload-Version"); v != "1" {
		t.Errorf("post-restart version header = %q, want 1", v)
	}
}

// TestSnapshotCorruptStateSkipped: corrupt, truncated and
// fingerprint-forged snapshots are skipped at boot — never a crash, and
// the healthy snapshot still loads.
func TestSnapshotCorruptStateSkipped(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{StateDir: dir})
	id := registerSmallBank(t, ts)

	// Corrupt siblings: garbage, a truncated copy of the real snapshot,
	// and a decodable snapshot whose id does not match its content.
	healthy, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, content []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("aaaa0000aaaa0000.json", []byte("not json at all"))
	write("bbbb0000bbbb0000.json", healthy[:len(healthy)/2])
	forged := bytes.Replace(healthy, []byte(id), []byte("cccc0000cccc0000"), -1)
	write("cccc0000cccc0000.json", forged)

	s2, ts2 := newTestServer(t, Options{StateDir: dir})
	loaded, skipped, err := s2.StateReport()
	if loaded != 1 || skipped != 3 || err != nil {
		t.Fatalf("StateReport = %d loaded, %d skipped, %v; want 1/3/nil", loaded, skipped, err)
	}
	resp, _ := doJSON(t, http.MethodPost, ts2.URL+"/v1/workloads/"+id+"/check", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthy workload lost among corrupt snapshots: %d", resp.StatusCode)
	}
}

// TestSnapshotEvictionDeletesFile: an evicted workload must not resurrect
// on the next boot.
func TestSnapshotEvictionDeletesFile(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{StateDir: dir, MaxWorkloads: 1})
	idSB := registerSmallBank(t, ts)
	var reg wire.RegisterWorkloadResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "auction"}, &reg)

	if _, err := os.Stat(filepath.Join(dir, idSB+".json")); !os.IsNotExist(err) {
		t.Errorf("evicted workload's snapshot still on disk: %v", err)
	}
	s2, _ := newTestServer(t, Options{StateDir: dir})
	if loaded, _, _ := s2.StateReport(); loaded != 1 {
		t.Errorf("loaded %d workloads after eviction, want only the resident auction", loaded)
	}
}

// TestResultCachePatchInvalidation: a PATCH invalidates exactly the
// patched workload's result-cache entries; a sibling workload's entries
// survive and keep hitting.
func TestResultCachePatchInvalidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	idSB := registerSmallBank(t, ts)
	var regAu wire.RegisterWorkloadResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "auction"}, &regAu)

	// Warm both result caches.
	for _, id := range []string{idSB, regAu.ID} {
		if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm subsets %s: %d", id, resp.StatusCode)
		}
	}

	var patch wire.PatchProgramResponse
	resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+idSB+"/programs/DepositChecking",
		&wire.PatchProgramRequest{SQL: patchedDepositChecking}, &patch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: %d", resp.StatusCode)
	}
	if patch.InvalidatedResults != 1 {
		t.Errorf("invalidated_results = %d, want 1", patch.InvalidatedResults)
	}

	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st)
	for _, ws := range st.WorkloadStats {
		switch ws.ID {
		case idSB:
			if ws.ResultCache.Entries != 0 || ws.ResultCache.Invalidated != 1 {
				t.Errorf("patched workload result cache = %+v, want 0 entries / 1 invalidated", ws.ResultCache)
			}
		case regAu.ID:
			if ws.ResultCache.Entries != 1 || ws.ResultCache.Invalidated != 0 {
				t.Errorf("sibling workload result cache = %+v, want its entry untouched", ws.ResultCache)
			}
		}
	}

	// The sibling still hits; the patched workload re-enumerates under its
	// new version.
	resp1, raw1 := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+regAu.ID+"/subsets", nil, nil)
	resp2, raw2 := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+regAu.ID+"/subsets", nil, nil)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK || !bytes.Equal(raw1, raw2) {
		t.Error("sibling workload's cached enumeration broke after foreign patch")
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+idSB+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("patched workload subsets: %d", resp.StatusCode)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st)
	for _, ws := range st.WorkloadStats {
		if ws.ID == idSB && ws.ResultCache.Entries != 1 {
			t.Errorf("patched workload should have re-cached under version 1: %+v", ws.ResultCache)
		}
	}
}

// TestPersistDebounce is the write-amplification fix's acceptance test: a
// burst of newly cached enumerations marks the workload dirty instead of
// rewriting its snapshot per request, so the file is written once per
// flush, not once per enumeration — and the flushed file carries every
// result of the burst.
func TestPersistDebounce(t *testing.T) {
	dir := t.TempDir()
	// An hour-long interval parks the background flusher so the test
	// controls flush points explicitly.
	s1, ts := newTestServer(t, Options{StateDir: dir, FlushInterval: time.Hour})
	id := registerSmallBank(t, ts)
	if got := s1.persists.Load(); got != 1 {
		t.Fatalf("registration persisted %d times, want 1 (synchronous)", got)
	}

	// A burst of distinct enumerations, each caching a new result.
	settings := []string{"attr+fk", "attr", "tpl", "tpl+fk"}
	for _, setting := range settings {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets",
			&wire.CheckRequest{Setting: setting}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subsets %s: %d", setting, resp.StatusCode)
		}
	}
	if got := s1.persists.Load(); got != 1 {
		t.Errorf("burst of %d enumerations wrote %d snapshots, want 0 new (debounced)", len(settings), got-1)
	}
	s1.Flush()
	if got := s1.persists.Load(); got != 2 {
		t.Errorf("flush after the burst wrote %d snapshots total, want exactly 2 (register + one flush)", got)
	}
	// Idempotent: nothing dirty, nothing written.
	s1.Flush()
	if got := s1.persists.Load(); got != 2 {
		t.Errorf("empty flush wrote a snapshot (total %d)", got)
	}

	// The single flushed file carries the whole burst.
	s2, ts2 := newTestServer(t, Options{StateDir: dir})
	if loaded, _, err := s2.StateReport(); loaded != 1 || err != nil {
		t.Fatalf("StateReport = %d loaded, %v", loaded, err)
	}
	var ws wire.WorkloadStats
	if resp, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/workloads/"+id, nil, &ws); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart workload lookup failed")
	}
	if ws.ResultCache.Entries != len(settings) {
		t.Errorf("restored result cache has %d entries, want the burst's %d", ws.ResultCache.Entries, len(settings))
	}
}

// TestFlushRetriesAfterPersistFailure: a flush that cannot write (state
// directory gone) must keep the workload dirty so a later flush retries —
// not silently abandon the burst's durability.
func TestFlushRetriesAfterPersistFailure(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "state")
	s, ts := newTestServer(t, Options{StateDir: dir, FlushInterval: time.Hour})
	id := registerSmallBank(t, ts)
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets failed")
	}

	// Break the state directory, flush, heal it, flush again.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if errs := s.persistErrs.Load(); errs == 0 {
		t.Fatal("broken state dir did not register a persist error")
	}
	if _, err := os.Stat(filepath.Join(dir, id+".json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot unexpectedly present: %v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if _, err := os.Stat(filepath.Join(dir, id+".json")); err != nil {
		t.Errorf("retry flush did not write the snapshot: %v", err)
	}
}

// TestFlushAfterEvictReregisterReleasesPin: when a dirty workload is
// evicted and its id re-registered as a fresh workload before the flush
// runs, the flush must skip the stale entry WITHOUT leaving its probe pin
// on the new workload — a leaked pin would make the workload permanently
// unevictable.
func TestFlushAfterEvictReregisterReleasesPin(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{StateDir: dir, MaxWorkloads: 1, FlushInterval: time.Hour})
	idSB := registerSmallBank(t, ts)

	// Dirty the workload, then evict it by registering another one.
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+idSB+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets failed")
	}
	var regAu wire.RegisterWorkloadResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "auction"}, &regAu)
	if s.reg.peek(idSB) != nil {
		t.Fatal("smallbank not evicted by the 1-entry cap")
	}

	// Re-register the same content: same id, fresh workload object.
	var reg wire.RegisterWorkloadResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "smallbank"}, &reg)
	if reg.ID != idSB {
		t.Fatalf("re-registration changed the fingerprint: %s vs %s", reg.ID, idSB)
	}

	s.Flush()
	w := s.reg.peek(idSB)
	if w == nil {
		t.Fatal("re-registered workload missing")
	}
	if pins := w.pins.Load(); pins != 0 {
		t.Errorf("flush leaked %d pin(s) on the re-registered workload — it can never be evicted", pins)
	}
}

// TestCoresPersistAcrossRestart: the minimal non-robust cores discovered by
// an enumeration survive a restart inside the snapshot, so the restarted
// server's first fresh enumeration (here: under a different program
// selection, which the result cache cannot answer) prunes from the seeded
// cores instead of rediscovering them.
func TestCoresPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts := newTestServer(t, Options{StateDir: dir})
	id := registerSmallBank(t, ts)

	var rep1 wire.SubsetsResponse
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, &rep1); resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets failed")
	}
	var ws wire.WorkloadStats
	doJSON(t, http.MethodGet, ts.URL+"/v1/workloads/"+id, nil, &ws)
	if ws.Cache.Cores.Cores == 0 || ws.Cache.Cores.SubsetsPruned == 0 {
		t.Fatalf("enumeration reported no cores/pruning: %+v", ws.Cache.Cores)
	}
	s1.Flush()

	s2, ts2 := newTestServer(t, Options{StateDir: dir})
	if loaded, _, err := s2.StateReport(); loaded != 1 || err != nil {
		t.Fatalf("StateReport = %d loaded, %v", loaded, err)
	}
	var wsBoot wire.WorkloadStats
	doJSON(t, http.MethodGet, ts2.URL+"/v1/workloads/"+id, nil, &wsBoot)
	if wsBoot.Cache.Cores.Cores != ws.Cache.Cores.Cores {
		t.Errorf("restored core store has %d cores, want the %d persisted", wsBoot.Cache.Cores.Cores, ws.Cache.Cores.Cores)
	}

	// The persisted cores and covers decide the whole lattice: a full
	// stream over the restarted workload runs no detector and computes no
	// Algorithm 1 pair.
	resp, err := http.Get(ts2.URL + "/v1/workloads/" + id + "/subsets:stream?mode=all")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart stream: %d %v", resp.StatusCode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	for _, line := range lines[:len(lines)-1] {
		var v wire.StreamVerdictRecord
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("stream line %s: %v", line, err)
		}
		if v.DecidedBy == analysis.DecidedDetector {
			t.Errorf("post-restart stream ran the detector on %v", v.Programs)
		}
	}
	var sum wire.StreamSummaryRecord
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || !sum.Summary {
		t.Fatalf("stream summary %s: %v", lines[len(lines)-1], err)
	}
	if sum.SubsetsPruned != 31 || sum.Checked != 0 {
		t.Errorf("post-restart stream pruned %d / checked %d, want 31 / 0", sum.SubsetsPruned, sum.Checked)
	}
	var wsStream wire.WorkloadStats
	doJSON(t, http.MethodGet, ts2.URL+"/v1/workloads/"+id, nil, &wsStream)
	if wsStream.Cache.Misses != 0 {
		t.Errorf("post-restart stream computed %d block pairs, want 0", wsStream.Cache.Misses)
	}
	// So does a collecting walk that bypasses the result cache: a walk
	// composes its universe graph only on a detector miss.
	var timed wire.SubsetsResponse
	if resp, raw := doJSON(t, http.MethodPost, ts2.URL+"/v1/workloads/"+id+"/subsets?debug=timings", nil, &timed); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart timed subsets: %d\n%s", resp.StatusCode, raw)
	}
	if timed.SubsetsPruned != 31 {
		t.Errorf("post-restart timed subsets pruned %d, want 31", timed.SubsetsPruned)
	}
	doJSON(t, http.MethodGet, ts2.URL+"/v1/workloads/"+id, nil, &wsStream)
	if wsStream.Cache.Misses != 0 {
		t.Errorf("post-restart timed subsets computed %d block pairs, want 0", wsStream.Cache.Misses)
	}

	// A fresh enumeration over a program selection the result cache has
	// never seen: the seeded cores covering that selection prune without a
	// rediscovery. {Bal, WC, Am} contains non-robust pairs on a default
	// SmallBank, so at least one pruned superset must show up.
	var rep2 wire.SubsetsResponse
	resp, _ = doJSON(t, http.MethodPost, ts2.URL+"/v1/workloads/"+id+"/subsets",
		&wire.CheckRequest{Programs: []string{"Bal", "WC", "Am"}}, &rep2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart subsets: %d", resp.StatusCode)
	}
	if rep2.SubsetsPruned == 0 {
		t.Errorf("restored cores pruned nothing on a covered selection")
	}
	var wsAfter wire.WorkloadStats
	doJSON(t, http.MethodGet, ts2.URL+"/v1/workloads/"+id, nil, &wsAfter)
	if wsAfter.Cache.Cores.Cores < wsBoot.Cache.Cores.Cores {
		t.Errorf("core store shrank across an enumeration: %d -> %d", wsBoot.Cache.Cores.Cores, wsAfter.Cache.Cores.Cores)
	}
}

// TestWalksPersistOnlyNewFacts: a walk can add facts only when its
// detector ran. Warm streams, which containment decides entirely, queue no
// snapshot write; a timed /subsets (which bypasses the result cache, so
// caches nothing) over a cold setting queues the facts it minted, and they
// decide that setting's lattice after a restart.
func TestWalksPersistOnlyNewFacts(t *testing.T) {
	dir := t.TempDir()
	s1, ts := newTestServer(t, Options{StateDir: dir, FlushInterval: time.Hour})
	id := registerSmallBank(t, ts)
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets failed")
	}
	s1.Flush()
	if got := s1.persists.Load(); got != 2 {
		t.Fatalf("register + flushed subsets wrote %d snapshots, want 2", got)
	}
	for i := 0; i < 3; i++ {
		_, sum, _ := streamLines(t, http.MethodGet, ts.URL+"/v1/workloads/"+id+"/subsets:stream?mode=first_non_robust", nil)
		if sum.Checked != 0 {
			t.Fatalf("warm stream %d ran the detector %d times", i, sum.Checked)
		}
		s1.Flush()
	}
	if got := s1.persists.Load(); got != 2 {
		t.Errorf("three warm streams wrote %d snapshots, want none", got-2)
	}

	var timed wire.SubsetsResponse
	if resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets?debug=timings",
		&wire.CheckRequest{Setting: "tpl"}, &timed); resp.StatusCode != http.StatusOK {
		t.Fatalf("timed subsets: %d\n%s", resp.StatusCode, raw)
	}
	if timed.SubsetsPruned == 31 {
		t.Fatal("timed subsets over a cold setting ran no detector")
	}
	s1.Flush()
	if got := s1.persists.Load(); got != 3 {
		t.Errorf("timed subsets over a cold setting: %d snapshots after its flush, want 3", got)
	}

	_, ts2 := newTestServer(t, Options{StateDir: dir})
	_, sum, _ := streamLines(t, http.MethodGet, ts2.URL+"/v1/workloads/"+id+"/subsets:stream?setting=tpl", nil)
	if sum.Checked != 0 || sum.SubsetsPruned != 31 {
		t.Errorf("post-restart tpl stream checked %d / pruned %d, want 0 / 31", sum.Checked, sum.SubsetsPruned)
	}
}

// TestCutShortStreamPersistsProbeCover: a stream over a robust selection
// that max_subsets cuts short before the walk ran the detector on any
// emitted mask still minted a fact — the probe's cover of the full
// selection — so it queues a snapshot write, and after a restart that
// cover decides every subset of the selection.
func TestCutShortStreamPersistsProbeCover(t *testing.T) {
	dir := t.TempDir()
	s1, ts := newTestServer(t, Options{StateDir: dir, FlushInterval: time.Hour})
	var reg wire.RegisterWorkloadResponse
	if resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "auction", N: 4}, &reg); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register auction: %d\n%s", resp.StatusCode, raw)
	}
	_, sum, _ := streamLines(t, http.MethodGet, ts.URL+"/v1/workloads/"+reg.ID+"/subsets:stream?max_subsets=3", nil)
	if sum.Emitted != 3 || sum.Checked != 0 || sum.SubsetsPruned != 3 {
		t.Fatalf("cut-short stream emitted %d, checked %d, pruned %d; want 3, 0, 3", sum.Emitted, sum.Checked, sum.SubsetsPruned)
	}
	s1.Flush()
	if got := s1.persists.Load(); got != 2 {
		t.Fatalf("register + flushed cut-short stream wrote %d snapshots, want 2", got)
	}

	_, ts2 := newTestServer(t, Options{StateDir: dir})
	_, sum, _ = streamLines(t, http.MethodGet, ts2.URL+"/v1/workloads/"+reg.ID+"/subsets:stream", nil)
	if sum.Checked != 0 || sum.SubsetsPruned != 255 {
		t.Errorf("post-restart stream checked %d / pruned %d, want 0 / 255", sum.Checked, sum.SubsetsPruned)
	}
}

// TestPatchKeepsUntouchedCores: a PATCH drops exactly the cores involving
// the patched program; cores over untouched programs survive and keep
// pruning the re-enumeration under the new version.
func TestPatchKeepsUntouchedCores(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm subsets failed")
	}
	var before wire.WorkloadStats
	doJSON(t, http.MethodGet, ts.URL+"/v1/workloads/"+id, nil, &before)
	if before.Cache.Cores.Cores == 0 {
		t.Fatalf("no cores after warm enumeration")
	}

	resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/workloads/"+id+"/programs/DepositChecking",
		&wire.PatchProgramRequest{SQL: patchedDepositChecking}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch failed")
	}
	var after wire.WorkloadStats
	doJSON(t, http.MethodGet, ts.URL+"/v1/workloads/"+id, nil, &after)
	if after.Cache.Cores.Cores >= before.Cache.Cores.Cores {
		t.Errorf("patch dropped no cores: %d -> %d", before.Cache.Cores.Cores, after.Cache.Cores.Cores)
	}
	if after.Cache.Cores.Cores == 0 {
		t.Errorf("patch dropped every core; cores over untouched programs must survive")
	}

	// The re-enumeration under version 1 prunes from the surviving cores.
	var rep wire.SubsetsResponse
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-patch subsets failed")
	}
	if rep.SubsetsPruned == 0 {
		t.Errorf("surviving cores pruned nothing after the patch")
	}
}

// TestMaxBytesEviction: with a tiny byte budget, registering new workloads
// sheds old ones by the size-weighted policy, while the most recently used
// workload always survives.
func TestMaxBytesEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBytes: 1})
	idSB := registerSmallBank(t, ts)
	var regTP, regAu wire.RegisterWorkloadResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "tpcc"}, &regTP)
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "auction"}, &regAu)

	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st)
	if st.Workloads != 1 || st.EvictionsBytes != 2 || st.MaxBytes != 1 {
		t.Fatalf("stats = %d workloads, %d byte evictions, max %d; want 1/2/1",
			st.Workloads, st.EvictionsBytes, st.MaxBytes)
	}
	if st.WorkloadStats[0].ID != regAu.ID {
		t.Errorf("survivor is %s, want the most recently used %s", st.WorkloadStats[0].ID, regAu.ID)
	}
	for _, id := range []string{idSB, regTP.ID} {
		if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted workload %s still answers: %d", id, resp.StatusCode)
		}
	}
}

// TestMaxBytesEvictionPinned: a workload with a request in flight is never
// a bytes-eviction victim, even under a budget that would otherwise shed
// everything but the newest registration.
func TestMaxBytesEvictionPinned(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxBytes: 1})
	idSB := registerSmallBank(t, ts)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	s.testSubsetsHook = func() {
		if !once {
			once = true
			close(entered)
			<-release
		}
	}
	subsetsDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/workloads/"+idSB+"/subsets", "application/json", nil)
		if err != nil {
			subsetsDone <- 0
			return
		}
		resp.Body.Close()
		subsetsDone <- resp.StatusCode
	}()
	<-entered // SmallBank now has a request in flight: pinned.

	// Two more registrations under the 1-byte budget: TPC-C (unpinned,
	// stale) must be evicted; pinned SmallBank and the just-registered
	// Auction survive.
	var regTP, regAu wire.RegisterWorkloadResponse
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "tpcc"}, &regTP)
	doJSON(t, http.MethodPost, ts.URL+"/v1/workloads", &wire.RegisterWorkloadRequest{Benchmark: "auction"}, &regAu)

	if s.reg.get(idSB) == nil {
		t.Error("pinned workload was evicted under -max-bytes")
	}
	if s.reg.get(regTP.ID) != nil {
		t.Error("unpinned stale workload survived a 1-byte budget")
	}
	close(release)
	if code := <-subsetsDone; code != http.StatusOK {
		t.Errorf("in-flight subsets on pinned workload: %d", code)
	}
}

// TestStateDirUnusable: persistence failing to initialize disables
// snapshots but not the service.
func TestStateDirUnusable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{StateDir: filepath.Join(file, "nested")}) // mkdir under a file fails
	defer s.Close()
	if _, _, err := s.StateReport(); err == nil {
		t.Error("unusable state dir not reported")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := registerSmallBank(t, ts)
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/check", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("server with failed persistence cannot serve: %d", resp.StatusCode)
	}
}

// TestSnapshotCertifiedBitSurvivesRestart: a certified core persists in the
// workload snapshot and reloads with its provenance bit set — the restarted
// server reports it in /v1/stats without re-running the certification.
func TestSnapshotCertifiedBitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts := newTestServer(t, Options{StateDir: dir})
	id := registerSmallBank(t, ts)

	var cert wire.CertifyResponse
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal", "Am"}}}, &cert)
	if resp.StatusCode != http.StatusOK || cert.Status != "certified" || !cert.NewlyCertified {
		t.Fatalf("certify: %d %+v\n%s", resp.StatusCode, cert, raw)
	}
	s1.Flush()

	// The provenance column is on disk.
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"certified"`)) {
		t.Fatalf("snapshot lacks the certified column:\n%s", data)
	}

	// Restart and look at the reloaded session's stats.
	_, ts2 := newTestServer(t, Options{StateDir: dir})
	var st wire.StatsResponse
	doJSON(t, http.MethodGet, ts2.URL+"/v1/stats", nil, &st)
	if st.CertifiedCores != 1 {
		t.Errorf("post-restart certified_cores = %d, want 1", st.CertifiedCores)
	}
	if st.Requests.Certify != 0 {
		t.Errorf("post-restart requests.certify = %d, want 0 (bit must come from the snapshot)", st.Requests.Certify)
	}

	// Re-certifying after the restart is a no-op on the provenance bit.
	var again wire.CertifyResponse
	if resp, _ := doJSON(t, http.MethodPost, ts2.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal", "Am"}}}, &again); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart certify: %d", resp.StatusCode)
	}
	if again.Status != "certified" || again.NewlyCertified {
		t.Errorf("post-restart certify = %+v, want certified without newly_certified", again)
	}
}
