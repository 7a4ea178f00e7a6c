package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/server"
	"repro/internal/summary"
)

func TestParseSetting(t *testing.T) {
	cases := map[string]summary.Setting{
		"tpl":     summary.SettingTplDep,
		"attr":    summary.SettingAttrDep,
		"tpl+fk":  summary.SettingTplDepFK,
		"attr+fk": summary.SettingAttrDepFK,
	}
	for name, want := range cases {
		got, err := parseSetting(name)
		if err != nil || got != want {
			t.Errorf("parseSetting(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseSetting("bogus"); err == nil {
		t.Error("bogus setting accepted")
	}
}

func TestParseMethod(t *testing.T) {
	if m, err := parseMethod("type1"); err != nil || m != summary.TypeI {
		t.Error("type1")
	}
	if m, err := parseMethod("type2"); err != nil || m != summary.TypeII {
		t.Error("type2")
	}
	if _, err := parseMethod("bogus"); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestLoadBenchmark(t *testing.T) {
	for _, name := range []string{"smallbank", "tpcc", "auction"} {
		if _, err := loadBenchmark(name, 1); err != nil {
			t.Errorf("loadBenchmark(%q): %v", name, err)
		}
	}
	b, err := loadBenchmark("auction", 3)
	if err != nil || len(b.Programs) != 6 {
		t.Errorf("auction n=3: %v, %d programs", err, len(b.Programs))
	}
	if _, err := loadBenchmark("bogus", 1); err == nil {
		t.Error("bogus benchmark accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Benchmarks across modes.
	cases := []struct {
		name    string
		bench   string
		setting string
		method  string
		progs   string
		subsets bool
		stats   bool
		wantErr bool
	}{
		{"auction robust", "auction", "attr+fk", "type2", "", false, true, false},
		{"auction type1", "auction", "attr+fk", "type1", "", false, false, false},
		{"smallbank subsets", "smallbank", "attr+fk", "type2", "", true, false, false},
		{"tpcc subset", "tpcc", "attr+fk", "type2", "OS,Pay,SL", false, false, false},
		{"bad program", "tpcc", "attr+fk", "type2", "Nope", false, false, true},
		{"bad setting", "tpcc", "huh", "type2", "", false, false, true},
		{"bad method", "tpcc", "attr+fk", "huh", "", false, false, true},
		{"no input", "", "attr+fk", "type2", "", false, false, true},
	}
	for _, tc := range cases {
		err := run(runOptions{
			benchName: tc.bench, n: 1,
			setting: tc.setting, method: tc.method, progList: tc.progs,
			subsets: tc.subsets, stats: tc.stats, unfold: 2,
		})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %t", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunSubsetsModes checks the cached engine and the naive oracle both
// succeed through the CLI path.
func TestRunSubsetsModes(t *testing.T) {
	for _, o := range []runOptions{
		{benchName: "smallbank", n: 1, setting: "attr+fk", method: "type2", subsets: true, unfold: 2},
		{benchName: "smallbank", n: 1, setting: "tpl", method: "type1", subsets: true, naive: true, unfold: 2},
	} {
		if err := run(o); err != nil {
			t.Errorf("run(%+v): %v", o, err)
		}
	}
}

func TestRunSQLFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "progs.sql")
	src := `
PROGRAM Bump(:B):
  UPDATE Buyer SET calls = calls + 1 WHERE id = :B; -- q1
  COMMIT;
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runOptions{n: 1, sqlFile: path, schemaSQL: "auction", setting: "attr+fk", method: "type2", stats: true, unfold: 2}); err != nil {
		t.Fatalf("run with -sql: %v", err)
	}
	// Missing -schema is an error.
	if err := run(runOptions{n: 1, sqlFile: path, setting: "attr+fk", method: "type2", unfold: 2}); err == nil {
		t.Error("missing -schema accepted")
	}
	// Unreadable file is an error.
	if err := run(runOptions{n: 1, sqlFile: filepath.Join(dir, "missing.sql"), schemaSQL: "auction", setting: "attr+fk", method: "type2", unfold: 2}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestJSONMatchesServer is the wire-sharing contract: robustcheck -json
// and a robustserved round-trip must produce byte-identical documents for
// the same input (SmallBank under the default configuration), for both the
// single check and the subset enumeration.
func TestJSONMatchesServer(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bench := benchmarks.SmallBank()
	reg, err := srv.Register(bench.Schema, bench.Programs)
	if err != nil {
		t.Fatal(err)
	}

	serverBody := func(path string) []byte {
		resp, err := http.Post(ts.URL+"/v1/workloads/"+reg.ID+"/"+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("server %s: %d %v", path, resp.StatusCode, err)
		}
		return raw
	}

	cliBody := func(subsets bool) []byte {
		var buf bytes.Buffer
		err := run(runOptions{
			benchName: "smallbank",
			setting:   "attr+fk", method: "type2", unfold: 2,
			subsets: subsets, json: true, out: &buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if cli, srv := cliBody(false), serverBody("check"); !bytes.Equal(cli, srv) {
		t.Errorf("check responses differ:\nCLI:    %s\nserver: %s", cli, srv)
	}
	if cli, srv := cliBody(true), serverBody("subsets"); !bytes.Equal(cli, srv) {
		t.Errorf("subsets responses differ:\nCLI:    %s\nserver: %s", cli, srv)
	}
}

// TestRunTimings asserts -timings prints the phase table to the error
// stream and leaves stdout byte-identical — the -json output must stay
// comparable against server responses with or without the flag.
func TestRunTimings(t *testing.T) {
	var plain, timed, table bytes.Buffer
	base := runOptions{
		benchName: "smallbank", n: 1,
		setting: "attr+fk", method: "type2", unfold: 2,
		subsets: true, json: true,
	}
	o := base
	o.out = &plain
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o = base
	o.out, o.errOut, o.timings = &timed, &table, true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), timed.Bytes()) {
		t.Error("-timings changed the stdout document")
	}
	for _, want := range []string{"phase timings:", "lattice_level", "compose", "detect"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("timing table missing %q:\n%s", want, table.String())
		}
	}
}

// TestRunTimingsCheck covers the plain-check path: the table appears even
// without -subsets, and an untimed run writes nothing to the error stream.
func TestRunTimingsCheck(t *testing.T) {
	var out, table bytes.Buffer
	err := run(runOptions{
		benchName: "smallbank", n: 1,
		setting: "attr+fk", method: "type2", unfold: 2,
		timings: true, out: &out, errOut: &table,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "phase timings:") {
		t.Errorf("no timing table:\n%s", table.String())
	}
}
