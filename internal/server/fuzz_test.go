package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/wire"
)

// fuzzRoutes are the method+pattern pairs New registers, in its order.
var fuzzRoutes = []struct{ method, pattern string }{
	{"GET", "/healthz"},
	{"GET", "/healthz/live"},
	{"GET", "/healthz/ready"},
	{"GET", "/metrics"},
	{"GET", "/v1/stats"},
	{"POST", "/v1/workloads"},
	{"POST", "/v1/workloads:fromSQL"},
	{"GET", "/v1/workloads/{id}"},
	{"POST", "/v1/workloads/{id}/check"},
	{"POST", "/v1/workloads/{id}/subsets"},
	{"POST", "/v1/workloads/{id}/subsets:stream"},
	{"GET", "/v1/workloads/{id}/subsets:stream"},
	{"POST", "/v1/workloads/{id}/certify"},
	{"PATCH", "/v1/workloads/{id}/programs/{name}"},
}

// fuzzMaxWorkloads is the registry cap of the fuzzed server. SmallBank and
// TPC-C fill it, so every registration that creates a workload evicts one.
const fuzzMaxWorkloads = 2

// The {id} a fuzz input's target selects: target%3 is SmallBank, TPC-C or
// an id no workload has, and target/3 indexes that workload's programs for
// {name} (past the end, a name it does not have).
const (
	fuzzSmallBank = iota
	fuzzTPCC
	fuzzUnknown
)

// FuzzServerRequests sends one request per input to a fresh in-process
// server holding SmallBank and TPC-C: route picks one of fuzzRoutes, target
// the workload and program the path names, and the query and body are sent
// as they are. /certify is pointed only at SmallBank, because a TPC-C
// certification can search its schedule cap for seconds per candidate.
// Whatever arrives, the server must not answer 5xx, every status >= 400
// must carry a wire.Error with a non-empty error, and the registry must
// stay within MaxWorkloads.
func FuzzServerRequests(f *testing.F) {
	seeded := make([]bool, len(fuzzRoutes))
	seed := func(method, pattern string, target int, query, body string) {
		for i, rt := range fuzzRoutes {
			if rt.method == method && rt.pattern == pattern {
				seeded[i] = true
				f.Add(uint8(i), uint8(target), query, []byte(body))
				return
			}
		}
		f.Fatalf("no route %s %s", method, pattern)
	}
	script, err := os.ReadFile("../sqlbtp/testdata/postgres/auction.sql")
	if err != nil {
		f.Fatal(err)
	}
	fromSQL, err := json.Marshal(wire.FromSQLRequest{Dialect: "postgres", Script: string(script)})
	if err != nil {
		f.Fatal(err)
	}
	patch, err := json.Marshal(wire.PatchProgramRequest{SQL: patchedDepositChecking})
	if err != nil {
		f.Fatal(err)
	}
	deposit := slices.IndexFunc(benchmarks.SmallBank().Programs, func(p *btp.Program) bool {
		return p.Name == "DepositChecking"
	})

	seed("GET", "/healthz", 0, "", "")
	seed("GET", "/healthz/live", 0, "", "")
	seed("GET", "/healthz/ready", 0, "", "")
	seed("GET", "/metrics", 0, "", "")
	seed("GET", "/v1/stats", 0, "", "")
	seed("POST", "/v1/workloads", 0, "", `{"benchmark": "smallbank"}`)
	seed("POST", "/v1/workloads", 0, "", `{"benchmark": "auction", "n": 3}`)
	seed("POST", "/v1/workloads", 0, "", `{"benchmark": "auction", "n": 101}`)
	seed("POST", "/v1/workloads", 0, "", `{"benchmark": "tpcc", "extra": 1}`)
	seed("POST", "/v1/workloads:fromSQL", 0, "", string(fromSQL))
	seed("POST", "/v1/workloads:fromSQL", 0, "", `{"dialect": "postgres", "script": "SELECT FROM;"}`)
	seed("GET", "/v1/workloads/{id}", fuzzTPCC, "", "")
	seed("GET", "/v1/workloads/{id}", fuzzUnknown, "", "")
	seed("POST", "/v1/workloads/{id}/check", fuzzSmallBank, "debug=timings", `{"programs": ["Am", "DC", "TS"]}`)
	seed("POST", "/v1/workloads/{id}/check", fuzzTPCC, "", `{"setting": "tpl", "method": "type1", "unfold_bound": 4}`)
	seed("POST", "/v1/workloads/{id}/check", fuzzSmallBank, "", `{"unfold_bound": 5}`)
	seed("POST", "/v1/workloads/{id}/subsets", fuzzTPCC, "", ``)
	seed("POST", "/v1/workloads/{id}/subsets", fuzzSmallBank, "debug=timings", `{"programs": ["Am", "Bal"]}`)
	seed("POST", "/v1/workloads/{id}/subsets:stream", fuzzSmallBank, "", `{"mode": "top_k", "k": 2}`)
	seed("POST", "/v1/workloads/{id}/subsets:stream", fuzzTPCC, "", `{"mode": "all_maximal_robust", "max_subsets": 3}`)
	seed("GET", "/v1/workloads/{id}/subsets:stream", fuzzSmallBank, "mode=first_non_robust&programs=Am,Bal", "")
	seed("GET", "/v1/workloads/{id}/subsets:stream", fuzzTPCC, "mode=top_k", "")
	seed("GET", "/v1/workloads/{id}/subsets:stream", fuzzSmallBank, "k=%zz&unfold_bound=x", "")
	seed("POST", "/v1/workloads/{id}/certify", fuzzSmallBank, "", `{"programs": ["Bal", "Am"], "max_schedules": 1000}`)
	seed("POST", "/v1/workloads/{id}/certify", fuzzSmallBank, "", `{"max_schedules": 100001}`)
	seed("PATCH", "/v1/workloads/{id}/programs/{name}", 3*deposit+fuzzSmallBank, "", string(patch))
	seed("PATCH", "/v1/workloads/{id}/programs/{name}", 3*deposit+fuzzSmallBank, "", `{"sql": "PROGRAM Other(): COMMIT;"}`)
	seed("PATCH", "/v1/workloads/{id}/programs/{name}", 3*len(benchmarks.TPCC().Programs)+fuzzTPCC, "", string(patch))
	for i, ok := range seeded {
		if !ok {
			f.Fatalf("no seed for %s %s", fuzzRoutes[i].method, fuzzRoutes[i].pattern)
		}
	}

	f.Fuzz(func(t *testing.T, route, target uint8, query string, body []byte) {
		s := New(Options{MaxWorkloads: fuzzMaxWorkloads})
		defer s.Close()
		var ids [2]string
		var programs [2][]string
		for i, bench := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.TPCC()} {
			resp, err := s.Register(bench.Schema, bench.Programs)
			if err != nil {
				t.Fatal(err)
			}
			ids[i], programs[i] = resp.ID, resp.Programs
		}

		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		which := int(target) % 3
		if which == fuzzTPCC && strings.HasSuffix(rt.pattern, "/certify") {
			which = fuzzSmallBank
		}
		id, name := "0123456789abcdef", "NoSuchProgram"
		if which != fuzzUnknown {
			id = ids[which]
			if i := int(target) / 3; i < len(programs[which]) {
				name = programs[which][i]
			}
		}
		req := httptest.NewRequest(rt.method,
			strings.NewReplacer("{id}", id, "{name}", name).Replace(rt.pattern),
			bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("%s %s?%s answered %d\n%s", req.Method, req.URL.Path, query, rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= http.StatusBadRequest {
			var e wire.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s %s?%s answered %d without a wire.Error (%v)\n%s",
					req.Method, req.URL.Path, query, rec.Code, err, rec.Body.Bytes())
			}
		}
		if n := s.reg.len(); n > fuzzMaxWorkloads {
			t.Fatalf("registry holds %d workloads, MaxWorkloads is %d", n, fuzzMaxWorkloads)
		}
	})
}
