// Command benchjson converts the text output of `go test -bench` into a
// JSON document, so CI can upload benchmark runs as machine-readable
// artifacts (BENCH_PR4.json) and track performance trends across commits
// without gating on noisy absolute numbers.
//
// Usage:
//
//	go test -bench . -benchtime=1x -count=3 | benchjson -out bench.json
//	go test -bench . | benchjson -speedup 'Foo/pruned=Foo/naive'
//
// Every benchmark result line becomes one entry — repeated names (from
// -count) are kept as separate entries, since the spread between them is
// the signal trend dashboards want. Context lines (goos, goarch, pkg, cpu)
// are captured once into the environment block; everything else (b.Log
// output, PASS/ok trailers) is ignored.
//
// -speedup takes comma-separated `new=baseline` name-fragment pairs and
// adds a speedup_vs block to the document: for every benchmark whose name
// contains the `new` fragment and whose counterpart (the name with the
// fragment replaced by `baseline`) was also measured, it emits the ratio
// of mean ns/op — baseline over new, so values above 1 mean the new path
// is faster. CI uses this to record the pruned-vs-naive enumeration
// speedup in the uploaded artifact without gating on absolute timings.
//
// -baseline and -gate turn the tool into a regression gate: -baseline
// names a previously committed artifact and -gate lists comma-separated
// name fragments; every current benchmark whose name contains a gated
// fragment and that also appears in the baseline must not exceed the
// baseline's mean ns/op by more than -gate-threshold (default 0.20, i.e.
// +20%). Violations are printed and the exit status is 1 — after the
// artifact has been written, so a failing gate still uploads evidence.
// When the baseline was recorded on a different CPU (the `cpu` env line),
// the comparison would be meaningless, so the gate warns and passes.
//
// -gate-allocs does the same for mean allocs/op, with two differences:
// allocation counts are machine-independent, so the gate runs even when
// the baseline's CPU differs, and the tolerance is absolute — one extra
// allocation per op beyond the baseline fails (allocs/op is an integer
// measure; fractional thresholds only blur it). CI uses this to pin the
// zero-overhead claim of the disabled-observability hot path: spans cost
// nothing unless a tracer is attached.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Result is one benchmark measurement: the full sub-benchmark name, the
// iteration count, and every reported metric (ns/op, B/op, allocs/op and
// custom b.ReportMetric units like req/s) keyed by unit.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the artifact layout.
type Doc struct {
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
	// SpeedupVs holds the -speedup comparisons, one entry per matched
	// benchmark pair.
	SpeedupVs []Speedup `json:"speedup_vs,omitempty"`
}

// Speedup compares one benchmark against its named baseline: Speedup is
// mean baseline ns/op divided by mean ns/op of Name, so values above 1
// mean Name is faster.
type Speedup struct {
	Name     string  `json:"name"`
	Baseline string  `json:"baseline"`
	Speedup  float64 `json:"speedup"`
}

func main() {
	out := flag.String("out", "-", "output path (- = stdout)")
	speedup := flag.String("speedup", "", "comma-separated new=baseline name-fragment pairs to compare as speedup_vs")
	baseline := flag.String("baseline", "", "previously committed artifact to gate against (requires -gate)")
	gate := flag.String("gate", "", "comma-separated name fragments whose mean ns/op must not regress past the baseline")
	threshold := flag.Float64("gate-threshold", 0.20, "allowed fractional ns/op regression before the gate fails")
	gateAllocs := flag.String("gate-allocs", "", "comma-separated name fragments whose mean allocs/op must stay within +1 of the baseline")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "benchjson")
		return
	}

	doc, err := convert(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := addSpeedups(doc, *speedup); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// The baseline is read before -out is created: CI points both at the
	// same committed path, overwriting the baseline with the fresh artifact
	// once it has been loaded.
	var base *Doc
	if *baseline != "" && (*gate != "" || *gateAllocs != "") {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		base = &Doc{}
		err = json.NewDecoder(f).Decode(base)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
			os.Exit(1)
		}
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if base != nil {
		var regressions []string
		if *gate != "" {
			nsRegressions, skipped := checkGate(doc, base, *gate, *threshold)
			if skipped != "" {
				fmt.Fprintln(os.Stderr, "benchjson: gate skipped:", skipped)
			} else {
				regressions = append(regressions, nsRegressions...)
			}
		}
		// The allocation gate never skips on CPU mismatch: allocs/op is a
		// property of the code path, not the machine.
		regressions = append(regressions, checkAllocGate(doc, base, *gateAllocs)...)
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
			}
			os.Exit(1)
		}
	}
}

// envKeys are the `key: value` context lines go test prints before results.
var envKeys = map[string]bool{"goos": true, "goarch": true, "pkg": true, "cpu": true}

// convert parses go test -bench output into the artifact document. It is
// deliberately permissive: unparseable lines are skipped, because the
// artifact step must fail only on build/run errors, never on log noise.
func convert(r io.Reader) (*Doc, error) {
	doc := &Doc{Env: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if key, value, ok := strings.Cut(line, ":"); ok && envKeys[key] {
			if _, dup := doc.Env[key]; !dup {
				doc.Env[key] = strings.TrimSpace(value)
			}
			continue
		}
		if res, ok := parseResult(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Env) == 0 {
		doc.Env = nil
	}
	return doc, nil
}

// meanNsOp averages ns/op across repeated entries of each name (-count).
func meanNsOp(doc *Doc) map[string]float64 {
	return meanMetric(doc, "ns/op")
}

// meanMetric averages one metric unit across repeated entries of each name.
func meanMetric(doc *Doc, unit string) map[string]float64 {
	means := make(map[string]float64)
	counts := make(map[string]int)
	for _, r := range doc.Benchmarks {
		if v, ok := r.Metrics[unit]; ok {
			means[r.Name] += v
			counts[r.Name]++
		}
	}
	for name := range means {
		means[name] /= float64(counts[name])
	}
	return means
}

// checkAllocGate compares mean allocs/op against the baseline for every
// current benchmark whose name contains a -gate-allocs fragment. The
// tolerance is one allocation per op, absolute: allocation counts are
// deterministic per code path, so anything beyond rounding slack between
// repeated runs is a real new allocation. Unlike the ns/op gate this runs
// across CPU changes — allocs/op does not depend on the machine.
func checkAllocGate(doc, base *Doc, gates string) (regressions []string) {
	if gates == "" {
		return nil
	}
	cur := meanMetric(doc, "allocs/op")
	old := meanMetric(base, "allocs/op")
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := make(map[string]bool)
	for _, frag := range strings.Split(gates, ",") {
		frag = strings.TrimSpace(frag)
		if frag == "" {
			continue
		}
		for _, name := range names {
			if !strings.Contains(name, frag) || seen[name] {
				continue
			}
			seen[name] = true
			baseAllocs, measured := old[name]
			if !measured {
				continue
			}
			if cur[name] > baseAllocs+1 {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.1f allocs/op vs baseline %.1f allocs/op (limit +1)",
					name, cur[name], baseAllocs))
			}
		}
	}
	return regressions
}

// checkGate compares the current document against the baseline: every
// current benchmark whose name contains a gated fragment and that the
// baseline also measured must have mean ns/op within (1+threshold)× the
// baseline's. It returns the list of violations, or a non-empty skip
// reason when the two documents were measured on different CPUs (absolute
// timings across machines gate nothing but noise).
func checkGate(doc, base *Doc, gates string, threshold float64) (regressions []string, skipped string) {
	if cur, old := doc.Env["cpu"], base.Env["cpu"]; cur != old {
		return nil, fmt.Sprintf("baseline cpu %q != current cpu %q", old, cur)
	}
	cur := meanNsOp(doc)
	old := meanNsOp(base)
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := make(map[string]bool)
	for _, frag := range strings.Split(gates, ",") {
		frag = strings.TrimSpace(frag)
		if frag == "" {
			continue
		}
		for _, name := range names {
			if !strings.Contains(name, frag) || seen[name] {
				continue
			}
			seen[name] = true
			baseNs, measured := old[name]
			if !measured || baseNs <= 0 {
				continue
			}
			if ratio := cur[name] / baseNs; ratio > 1+threshold {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.0f ns/op vs baseline %.0f ns/op (%.2fx, threshold %.2fx)",
					name, cur[name], baseNs, ratio, 1+threshold))
			}
		}
	}
	return regressions, ""
}

// addSpeedups evaluates the -speedup pairs against the parsed benchmarks.
// Mean ns/op is taken across repeated entries of a name (-count); a pair
// whose baseline was not measured is skipped silently (trend artifacts
// must not fail on a narrowed -bench selection), but a malformed spec is
// an error.
func addSpeedups(doc *Doc, specs string) error {
	if specs == "" {
		return nil
	}
	means := meanNsOp(doc)
	names := make([]string, 0, len(means))
	for name := range means {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		newFrag, baseFrag, ok := strings.Cut(spec, "=")
		if !ok || newFrag == "" || baseFrag == "" {
			return fmt.Errorf("malformed -speedup pair %q (want new=baseline)", spec)
		}
		for _, name := range names {
			if !strings.Contains(name, newFrag) {
				continue
			}
			baseline := strings.Replace(name, newFrag, baseFrag, 1)
			base, measured := means[baseline]
			if !measured || means[name] <= 0 {
				continue
			}
			doc.SpeedupVs = append(doc.SpeedupVs, Speedup{
				Name:     name,
				Baseline: baseline,
				Speedup:  base / means[name],
			})
		}
	}
	return nil
}

// parseResult parses one `BenchmarkName-8  N  v1 unit1  v2 unit2 ...` line.
func parseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}
