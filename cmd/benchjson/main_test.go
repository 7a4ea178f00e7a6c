package main

import (
	"strings"
	"testing"
)

// sample mirrors real `go test -bench` output: env lines, a plain result,
// a -benchmem result, a custom-metric result, a repeated name (-count=2),
// and assorted noise that must be ignored.
const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Some CPU @ 2.40GHz
BenchmarkRobustSubsets/naive/attr_dep-8         	       1	  52034188 ns/op	 4378544 B/op	   80194 allocs/op
BenchmarkRobustSubsets/cached/attr_dep-8        	       1	   2878354 ns/op	  350200 B/op	    3056 allocs/op
BenchmarkServerThroughput/subsets/warm-8        	       1	    190243 ns/op	      5256 req/s
BenchmarkServerThroughput/subsets/warm-8        	       1	    201001 ns/op	      4975 req/s
--- BENCH: BenchmarkRobustSubsets
    bench_test.go:42: Table 2 row: SmallBank
PASS
ok  	repro	12.345s
`

func TestConvert(t *testing.T) {
	doc, err := convert(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Env["goos"] != "linux" || doc.Env["cpu"] != "Some CPU @ 2.40GHz" {
		t.Errorf("env = %v", doc.Env)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	first := doc.Benchmarks[0]
	if first.Name != "BenchmarkRobustSubsets/naive/attr_dep-8" || first.Iterations != 1 {
		t.Errorf("first = %+v", first)
	}
	if first.Metrics["ns/op"] != 52034188 || first.Metrics["allocs/op"] != 80194 {
		t.Errorf("first metrics = %v", first.Metrics)
	}
	// Custom b.ReportMetric units survive, and -count repetitions stay
	// separate entries.
	warm := doc.Benchmarks[2]
	if warm.Metrics["req/s"] != 5256 {
		t.Errorf("warm metrics = %v", warm.Metrics)
	}
	if doc.Benchmarks[3].Name != warm.Name {
		t.Errorf("repeated result collapsed: %+v", doc.Benchmarks[3])
	}
}

func TestParseResultRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  	repro	12.345s",
		"--- BENCH: BenchmarkRobustSubsets",
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"BenchmarkOdd-8 1 12", // metric without unit
	} {
		if _, ok := parseResult(line); ok {
			t.Errorf("parseResult accepted %q", line)
		}
	}
}

// speedupSample has a pruned/cached pair (with -count=2 repetitions on the
// pruned side, so the mean matters) and an unpaired benchmark.
const speedupSample = `BenchmarkRobustSubsets/cached/attr_dep-8   1  30000 ns/op
BenchmarkRobustSubsets/pruned/attr_dep-8   1  12000 ns/op
BenchmarkRobustSubsets/pruned/attr_dep-8   1   8000 ns/op
BenchmarkRobustSubsets/cached/tpl_dep-8    1  20000 ns/op
BenchmarkRobustSubsets/pruned/tpl_dep-8    1   5000 ns/op
BenchmarkUnrelated-8                       1    100 ns/op
`

func TestAddSpeedups(t *testing.T) {
	doc, err := convert(strings.NewReader(speedupSample))
	if err != nil {
		t.Fatal(err)
	}
	if err := addSpeedups(doc, "BenchmarkRobustSubsets/pruned=BenchmarkRobustSubsets/cached"); err != nil {
		t.Fatal(err)
	}
	if len(doc.SpeedupVs) != 2 {
		t.Fatalf("speedup_vs has %d entries, want 2: %+v", len(doc.SpeedupVs), doc.SpeedupVs)
	}
	// Sorted by name: attr_dep before tpl_dep. Mean pruned attr = 10000,
	// baseline 30000 → 3×; tpl: 20000/5000 → 4×.
	attr, tpl := doc.SpeedupVs[0], doc.SpeedupVs[1]
	if attr.Baseline != "BenchmarkRobustSubsets/cached/attr_dep-8" || attr.Speedup != 3 {
		t.Errorf("attr speedup = %+v", attr)
	}
	if tpl.Speedup != 4 {
		t.Errorf("tpl speedup = %+v", tpl)
	}
}

// gateDoc builds a document with one benchmark per name→ns/op entry plus a
// cpu env line.
func gateDoc(cpu string, ns map[string]float64) *Doc {
	doc := &Doc{Env: map[string]string{"cpu": cpu}}
	for name, v := range ns {
		doc.Benchmarks = append(doc.Benchmarks, Result{
			Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": v},
		})
	}
	return doc
}

func TestCheckGate(t *testing.T) {
	base := gateDoc("cpuA", map[string]float64{
		"BenchmarkRobustSubsets/cached-8": 1000,
		"BenchmarkRobustSubsets/pruned-8": 2000,
		"BenchmarkServerThroughput-8":     5000,
		"BenchmarkUngated-8":              10,
	})
	gates := "RobustSubsets/cached,RobustSubsets/pruned,ServerThroughput"

	// Within threshold everywhere: pass.
	cur := gateDoc("cpuA", map[string]float64{
		"BenchmarkRobustSubsets/cached-8": 1150,
		"BenchmarkRobustSubsets/pruned-8": 1900,
		"BenchmarkServerThroughput-8":     5999,
		"BenchmarkUngated-8":              1e9, // not gated, may regress freely
	})
	if regs, skip := checkGate(cur, base, gates, 0.20); len(regs) != 0 || skip != "" {
		t.Errorf("within threshold: regs=%v skip=%q", regs, skip)
	}

	// One gated benchmark past the threshold: exactly one violation.
	cur.Benchmarks[0].Metrics = map[string]float64{"ns/op": 99999}
	cur = gateDoc("cpuA", map[string]float64{
		"BenchmarkRobustSubsets/cached-8": 1201, // > +20%
		"BenchmarkRobustSubsets/pruned-8": 1900,
		"BenchmarkServerThroughput-8":     5999,
	})
	regs, skip := checkGate(cur, base, gates, 0.20)
	if skip != "" || len(regs) != 1 || !strings.Contains(regs[0], "RobustSubsets/cached") {
		t.Errorf("regression: regs=%v skip=%q", regs, skip)
	}

	// A gated benchmark absent from the baseline gates nothing.
	cur = gateDoc("cpuA", map[string]float64{
		"BenchmarkRobustSubsets/pruned/new_variant-8": 1e9,
	})
	if regs, skip := checkGate(cur, base, gates, 0.20); len(regs) != 0 || skip != "" {
		t.Errorf("unknown benchmark: regs=%v skip=%q", regs, skip)
	}

	// Different CPU: warn-skip, never gate.
	cur = gateDoc("cpuB", map[string]float64{
		"BenchmarkRobustSubsets/cached-8": 1e9,
	})
	if regs, skip := checkGate(cur, base, gates, 0.20); len(regs) != 0 || skip == "" {
		t.Errorf("cpu mismatch: regs=%v skip=%q", regs, skip)
	}
}

func TestAddSpeedupsEdgeCases(t *testing.T) {
	doc, err := convert(strings.NewReader(speedupSample))
	if err != nil {
		t.Fatal(err)
	}
	// Empty spec: no-op.
	if err := addSpeedups(doc, ""); err != nil || doc.SpeedupVs != nil {
		t.Errorf("empty spec: %v %+v", err, doc.SpeedupVs)
	}
	// Missing baseline measurements are skipped, not errors.
	if err := addSpeedups(doc, "pruned=nonexistent"); err != nil || len(doc.SpeedupVs) != 0 {
		t.Errorf("unmeasured baseline: %v %+v", err, doc.SpeedupVs)
	}
	// Malformed specs are errors.
	for _, bad := range []string{"justone", "=x", "x="} {
		if err := addSpeedups(doc, bad); err == nil {
			t.Errorf("malformed spec %q accepted", bad)
		}
	}
}

// allocDoc builds a one-benchmark document with the given mean allocs/op
// (split across two -count entries) and CPU string.
func allocDoc(name, cpu string, allocs float64) *Doc {
	return &Doc{
		Env: map[string]string{"cpu": cpu},
		Benchmarks: []Result{
			{Name: name, Iterations: 1, Metrics: map[string]float64{"allocs/op": allocs - 1, "ns/op": 100}},
			{Name: name, Iterations: 1, Metrics: map[string]float64{"allocs/op": allocs + 1, "ns/op": 100}},
		},
	}
}

func TestCheckAllocGate(t *testing.T) {
	const name = "BenchmarkRobustSubsets/pruned/attr_dep-8"
	base := allocDoc(name, "cpu-a", 63)

	// Within the +1 absolute slack: passes.
	if regs := checkAllocGate(allocDoc(name, "cpu-a", 64), base, "RobustSubsets/pruned"); len(regs) != 0 {
		t.Errorf("64 vs 63 allocs must pass (+1 slack): %v", regs)
	}
	// Beyond it: fails.
	regs := checkAllocGate(allocDoc(name, "cpu-a", 66), base, "RobustSubsets/pruned")
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Errorf("66 vs 63 allocs must fail: %v", regs)
	}
	// Unlike the ns/op gate, a CPU change does not skip the comparison —
	// allocation counts are machine-independent.
	if regs := checkAllocGate(allocDoc(name, "cpu-b", 70), base, "RobustSubsets/pruned"); len(regs) != 1 {
		t.Errorf("alloc gate must run across CPU changes: %v", regs)
	}
	// Fragments that match nothing, or benchmarks absent from the
	// baseline, gate nothing.
	if regs := checkAllocGate(allocDoc(name, "cpu-a", 99), base, "NoSuchBenchmark"); len(regs) != 0 {
		t.Errorf("unmatched fragment produced %v", regs)
	}
	if regs := checkAllocGate(allocDoc("BenchmarkNew-8", "cpu-a", 99), base, "BenchmarkNew"); len(regs) != 0 {
		t.Errorf("benchmark missing from baseline produced %v", regs)
	}
	if regs := checkAllocGate(allocDoc(name, "cpu-a", 99), base, ""); len(regs) != 0 {
		t.Errorf("empty gate spec produced %v", regs)
	}
}

// TestGateStripsProcsSuffix: go test appends -<GOMAXPROCS> to benchmark
// names on multi-core runners, and a baseline recorded on one core has no
// suffix. Both gates must still pair the names up, in either direction.
func TestGateStripsProcsSuffix(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkRobustSubsets/pruned/attr_dep-2":      "BenchmarkRobustSubsets/pruned/attr_dep",
		"BenchmarkIntraCheck/Auction-n40/sequential-16": "BenchmarkIntraCheck/Auction-n40/sequential",
		"BenchmarkIntraCheck/Auction-n40/sequential":    "BenchmarkIntraCheck/Auction-n40/sequential",
		"BenchmarkServerOverhead":                       "BenchmarkServerOverhead",
		"BenchmarkOdd-":                                 "BenchmarkOdd-",
	} {
		if got := gateName(name); got != want {
			t.Errorf("gateName(%q) = %q, want %q", name, got, want)
		}
	}

	const plain = "BenchmarkRobustSubsets/pruned/attr_dep"
	if regs := checkAllocGate(allocDoc(plain+"-2", "cpu-a", 47), allocDoc(plain, "cpu-a", 0), "RobustSubsets/pruned"); len(regs) != 1 {
		t.Errorf("47 allocs/op on 2 cores vs a 1-core baseline of 0 must fail: %v", regs)
	}
	if regs := checkAllocGate(allocDoc(plain, "cpu-a", 47), allocDoc(plain+"-8", "cpu-a", 0), "RobustSubsets/pruned"); len(regs) != 1 {
		t.Errorf("47 allocs/op on 1 core vs an 8-core baseline of 0 must fail: %v", regs)
	}
	base := gateDoc("cpuA", map[string]float64{plain: 1000})
	regs, skip := checkGate(gateDoc("cpuA", map[string]float64{plain + "-2": 2000}), base, "RobustSubsets/pruned", 0.20)
	if skip != "" || len(regs) != 1 {
		t.Errorf("2× ns/op on 2 cores vs a 1-core baseline must fail: regs=%v skip=%q", regs, skip)
	}
}

// TestGateFailsOnUnmatchedFragment: a gated fragment that names no
// baseline benchmark fails the gate instead of comparing nothing; the ns/op
// gate does so only when it is not skipped for a CPU change.
func TestGateFailsOnUnmatchedFragment(t *testing.T) {
	const name = "BenchmarkRobustSubsets/pruned/attr_dep"
	base := allocDoc(name, "cpu-a", 47)
	cur := allocDoc(name+"-2", "cpu-a", 47)

	if fails, skip := gateFailures(cur, base, "RobustSubsets/pruned", "RobustSubsets/pruned", 0.20); len(fails) != 0 || skip != "" {
		t.Errorf("matched gates: fails=%v skip=%q", fails, skip)
	}
	fails, _ := gateFailures(cur, base, "", "RobustSubsets/pruned,BenchmarkServerOverhead", 0.20)
	if len(fails) != 1 || !strings.Contains(fails[0], `"BenchmarkServerOverhead" matches no baseline benchmark`) {
		t.Errorf("unmatched -gate-allocs fragment: %v", fails)
	}
	if fails, skip := gateFailures(cur, base, "NoSuchBenchmark", "", 0.20); len(fails) != 1 || skip != "" {
		t.Errorf("unmatched -gate fragment: fails=%v skip=%q", fails, skip)
	}
	if fails, skip := gateFailures(allocDoc(name, "cpu-b", 47), base, "NoSuchBenchmark", "", 0.20); len(fails) != 0 || skip == "" {
		t.Errorf("CPU-skipped -gate must not fail: fails=%v skip=%q", fails, skip)
	}
}
