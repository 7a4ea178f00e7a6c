package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// streamLines performs one :stream request and returns the decoded verdict
// lines and the trailing summary record.
func streamLines(t *testing.T, method, url string, body any) ([]wire.StreamVerdictRecord, *wire.StreamSummaryRecord, *http.Response) {
	t.Helper()
	resp, raw := doJSON(t, method, url, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d\n%s", method, url, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var verdicts []wire.StreamVerdictRecord
	var summary *wire.StreamSummaryRecord
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if summary != nil {
			t.Fatalf("record after the summary line: %s", line)
		}
		// Distinguish the summary record by its marker field.
		var probe struct {
			Summary bool   `json:"summary"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("unparseable NDJSON line: %s", line)
		}
		if probe.Error != "" {
			t.Fatalf("in-band stream error: %s", probe.Error)
		}
		if probe.Summary {
			summary = &wire.StreamSummaryRecord{}
			if err := json.Unmarshal([]byte(line), summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var v wire.StreamVerdictRecord
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, v)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary record")
	}
	return verdicts, summary, resp
}

// TestSubsetsStreamFirstNonRobust: the GET endpoint streams NDJSON, the
// first_non_robust mode terminates after a strict prefix of SmallBank's 31
// subsets, the summary record carries the termination and pruning
// telemetry, and /v1/stats counts the stream and the early termination.
func TestSubsetsStreamFirstNonRobust(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	verdicts, sum, resp := streamLines(t, http.MethodGet,
		ts.URL+"/v1/workloads/"+id+"/subsets:stream?mode=first_non_robust", nil)
	if resp.Header.Get("X-Workload-Version") != "0" {
		t.Errorf("X-Workload-Version = %q", resp.Header.Get("X-Workload-Version"))
	}
	if len(verdicts) >= 31 {
		t.Errorf("first_non_robust streamed %d verdicts — no early termination", len(verdicts))
	}
	last := verdicts[len(verdicts)-1]
	if last.Robust {
		t.Errorf("terminal verdict is robust: %+v", last)
	}
	for _, v := range verdicts[:len(verdicts)-1] {
		if !v.Robust {
			t.Errorf("non-robust verdict before the terminal one: %+v", v)
		}
	}
	if !sum.EarlyTerminated || sum.Reason != "first_non_robust" || sum.Mode != "first_non_robust" {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Emitted != len(verdicts) {
		t.Errorf("summary emitted %d, streamed %d lines", sum.Emitted, len(verdicts))
	}
	if sum.Checked+sum.SubsetsPruned != sum.Emitted {
		t.Errorf("checked %d + pruned %d != emitted %d", sum.Checked, sum.SubsetsPruned, sum.Emitted)
	}

	var stats wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
	if stats.Requests.Streamed < 1 || stats.Requests.EarlyTerminations < 1 {
		t.Errorf("request stats = %+v", stats.Requests)
	}
}

// TestSubsetsStreamFullMatchesMonolithic: a complete mode=all POST stream
// emits all 31 verdicts, its summary carries the exact maximal sets of the
// monolithic answer, and the result cache is cross-populated — the
// subsequent /subsets request is a stored-bytes hit.
func TestSubsetsStreamFullMatchesMonolithic(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	verdicts, sum, _ := streamLines(t, http.MethodPost,
		ts.URL+"/v1/workloads/"+id+"/subsets:stream", &wire.StreamRequest{})
	if len(verdicts) != 31 || sum.EarlyTerminated || sum.Reason != "" {
		t.Fatalf("full stream: %d verdicts, summary %+v", len(verdicts), sum)
	}

	var mono wire.SubsetsResponse
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets",
		&wire.CheckRequest{}, &mono)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets: %d", resp.StatusCode)
	}
	if fmt.Sprint(sum.Maximal) != fmt.Sprint(mono.Maximal) {
		t.Errorf("stream maximal %v != monolithic %v", sum.Maximal, mono.Maximal)
	}
	robustStreamed := 0
	for _, v := range verdicts {
		if v.Robust {
			robustStreamed++
		}
	}
	if robustStreamed != len(mono.Robust) {
		t.Errorf("stream emitted %d robust subsets, monolithic reports %d", robustStreamed, len(mono.Robust))
	}

	var stats wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
	if len(stats.WorkloadStats) != 1 || stats.WorkloadStats[0].ResultCache.Hits < 1 {
		t.Errorf("monolithic request after a full stream was not a result-cache hit: %+v", stats.WorkloadStats)
	}
}

// TestSubsetsStreamCachesCertifiedCores: the /subsets answer a complete
// mode=all stream stores in the result cache carries the certified-core
// tally, exactly as a direct /subsets enumeration would — after
// certifying {Bal, Am}, the cached answer reports certified_cores 1.
func TestSubsetsStreamCachesCertifiedCores(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)
	var cert wire.CertifyResponse
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/certify",
		&wire.CertifyRequest{CheckRequest: wire.CheckRequest{Programs: []string{"Bal", "Am"}}}, &cert)
	if resp.StatusCode != http.StatusOK || cert.Status != "certified" {
		t.Fatalf("certify {Bal, Am}: %d %+v\n%s", resp.StatusCode, cert, raw)
	}
	if verdicts, _, _ := streamLines(t, http.MethodGet,
		ts.URL+"/v1/workloads/"+id+"/subsets:stream?mode=all", nil); len(verdicts) != 31 {
		t.Fatalf("full stream emitted %d verdicts, want 31", len(verdicts))
	}
	var subs wire.SubsetsResponse
	if resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads/"+id+"/subsets", nil, &subs); resp.StatusCode != http.StatusOK {
		t.Fatalf("subsets: %d\n%s", resp.StatusCode, raw)
	}
	if subs.CertifiedCores != 1 {
		t.Errorf("subsets after a full stream: certified_cores = %d, want 1", subs.CertifiedCores)
	}
	var stats wire.StatsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
	if len(stats.WorkloadStats) != 1 || stats.WorkloadStats[0].ResultCache.Hits != 1 {
		t.Errorf("/subsets after the stream was not served from the stream's cache entry: %+v", stats.WorkloadStats)
	}
}

// TestSubsetsStreamTopK: the k parameter flows through the GET query and
// the summary ranks the k largest robust subsets; k=0 with mode=top_k is
// rejected before the stream starts.
func TestSubsetsStreamTopK(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	verdicts, sum, _ := streamLines(t, http.MethodGet,
		ts.URL+"/v1/workloads/"+id+"/subsets:stream?mode=top_k&k=2", nil)
	if len(sum.TopK) != 2 {
		t.Fatalf("top_k=2 returned %d subsets: %+v", len(sum.TopK), sum.TopK)
	}
	if len(sum.TopK[0]) < len(sum.TopK[1]) {
		t.Errorf("top-k not size-descending: %v", sum.TopK)
	}
	for _, v := range verdicts {
		if !v.Robust {
			t.Errorf("top_k streamed a non-robust verdict: %+v", v)
		}
	}

	resp, _ := doJSON(t, http.MethodGet,
		ts.URL+"/v1/workloads/"+id+"/subsets:stream?mode=top_k", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("top_k without k: %d, want 400", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet,
		ts.URL+"/v1/workloads/"+id+"/subsets:stream?mode=bogus", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mode: %d, want 400", resp.StatusCode)
	}
}

// TestSubsetsStreamDisconnectCancels: closing the client connection mid-
// stream must cancel the lattice walk. The stream is paced: after its
// second verdict line it waits until the disconnect has cancelled its
// context, so the walk stops at exactly two decided subsets (detector runs
// plus containment decisions) of the 2^11−1 = 2047 that eleven of
// Auction(11)'s 22 programs give, however fast the host or large its
// socket buffers; all 22 would exceed the enumeration limit.
func TestSubsetsStreamDisconnectCancels(t *testing.T) {
	const paced = 2
	srv, ts := newTestServer(t, Options{})
	var lines int
	srv.testStreamHook = func(ctx context.Context) {
		if lines++; lines != paced {
			return
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("stream context not cancelled 5 s after the client disconnected")
		}
	}
	var reg wire.RegisterWorkloadResponse
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/workloads",
		&wire.RegisterWorkloadRequest{Benchmark: "auction", N: 11}, &reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register auction: %d\n%s", resp.StatusCode, raw)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v1/workloads/"+reg.ID+"/subsets:stream"+
			"?programs=FB1,PB1,FB2,PB2,FB3,PB3,FB4,PB4,FB5,PB5,FB6", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d, want 200", res.StatusCode)
	}
	// Read the paced lines to prove the stream is live, then drop the
	// connection.
	sc := bufio.NewScanner(res.Body)
	for i := 0; i < paced && sc.Scan(); i++ {
	}
	cancel()
	res.Body.Close()

	decided := func() uint64 {
		var stats wire.StatsResponse
		doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &stats)
		if len(stats.WorkloadStats) != 1 {
			t.Fatalf("workload stats: %+v", stats.WorkloadStats)
		}
		c := stats.WorkloadStats[0].Cache.Cores
		return c.Misses + c.SubsetsPruned
	}
	// The cancel stops the walk at the next mask; the aborted walk then
	// adds its decisions to the workload's counters. Wait for them, then
	// require they stay put.
	deadline := time.Now().Add(5 * time.Second)
	got := decided()
	for got != paced && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		got = decided()
	}
	if got != paced {
		t.Fatalf("disconnected stream decided %d subsets, want %d", got, paced)
	}
	time.Sleep(100 * time.Millisecond)
	if again := decided(); again != got {
		t.Errorf("lattice walk kept running after disconnect: decided %d -> %d", got, again)
	}
}

// TestConcurrentStreamAndPatch hammers one workload with parallel streams
// (all modes) and PATCHes. Under -race this is the streaming data-race
// test; functionally every response must be an HTTP 200 whose lines all
// parse, with any engine abort surfacing as the in-band error record, and
// the server must keep serving afterwards.
func TestConcurrentStreamAndPatch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := registerSmallBank(t, ts)

	var wg sync.WaitGroup
	modes := []string{"", "first_non_robust", "all_maximal_robust", "top_k&k=2", "&max_subsets=7"}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				mode := modes[(worker+j)%len(modes)]
				url := ts.URL + "/v1/workloads/" + id + "/subsets:stream?mode=" + mode
				res, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				if res.StatusCode != http.StatusOK {
					t.Errorf("stream: %d", res.StatusCode)
					res.Body.Close()
					return
				}
				sc := bufio.NewScanner(res.Body)
				for sc.Scan() {
					var probe map[string]any
					if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
						t.Errorf("unparseable line under churn: %s", sc.Bytes())
					}
				}
				res.Body.Close()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 6; j++ {
			resp, raw := doJSON(t, http.MethodPatch,
				ts.URL+"/v1/workloads/"+id+"/programs/DepositChecking",
				&wire.PatchProgramRequest{SQL: patchedDepositChecking}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("patch: %d\n%s", resp.StatusCode, raw)
				return
			}
		}
	}()
	wg.Wait()

	// The workload still answers exactly after the churn.
	verdicts, sum, _ := streamLines(t, http.MethodGet,
		ts.URL+"/v1/workloads/"+id+"/subsets:stream", nil)
	if len(verdicts) != 31 || sum.EarlyTerminated {
		t.Errorf("post-churn full stream: %d verdicts, %+v", len(verdicts), sum)
	}
}
