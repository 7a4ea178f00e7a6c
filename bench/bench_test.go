package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// TestWorkloadsReportSpecMetrics runs every workload for one second,
// untraced and traced, and checks that the result lines carry exactly the
// metrics BENCHMARK.json names, that every answer was right and that
// cold-analysis's registrations really were cold.
func TestWorkloadsReportSpecMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts robustserved and drives it for several seconds")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, Workloads()) {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark runs %v", names, Workloads())
	}
	ctx := context.Background()
	b, err := New(ctx, root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			rep, err := b.Run(ctx, RunConfig{Workload: w, Seed: 7, Measure: time.Second, Warmup: 200 * time.Millisecond, Setups: 1, Trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if got, wantNames := printedMetrics(t, rep), specNames(want); !slices.Equal(got, wantNames) {
				t.Errorf("%s traced=%v prints %v, BENCHMARK.json has %v", w, traced, got, wantNames)
			}
			if rep.Wrong != 0 || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed, %d wrong: %v", w, traced, rep.Attempted, rep.Failed, rep.Wrong, rep.Errors)
			}
			for _, m := range rep.Extra {
				if m.Name == "error_rate" && m.Value != 0 {
					t.Errorf("%s: error_rate %g", w, m.Value)
				}
			}
			if w == "cold-analysis" {
				var misses uint64
				for _, ws := range rep.Stats.WorkloadStats {
					misses += ws.Cache.Misses
				}
				if rep.Stats.Evictions == 0 || misses == 0 {
					t.Errorf("cold-analysis: %d evictions, %d pairs computed by resident workloads; registrations were not cold", rep.Stats.Evictions, misses)
				}
			}
		}
	}
}

// printedMetrics returns the sorted metric names of a report's result line.
func printedMetrics(t *testing.T, rep *Report) []string {
	t.Helper()
	var out bytes.Buffer
	if err := rep.Print(&out, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func specNames(ms []SpecMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestCountingFS checks the counts of one atomic write protocol: create,
// write, fsync, close, rename, directory fsync.
func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	fs := &countingFS{FS: faultfs.OS{}}
	f, err := fs.Create(filepath.Join(dir, "a.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"hello ", "world"} {
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "a")); err != nil || string(got) != "hello world" {
		t.Fatalf("written file = %q, %v", got, err)
	}
	if fs.bytes.Load() != 11 || fs.creates.Load() != 1 || fs.renames.Load() != 1 ||
		fs.fileSyncs.Load() != 1 || fs.dirSyncs.Load() != 1 || fs.fsyncs() != 2 {
		t.Fatalf("counts: bytes %d creates %d renames %d file syncs %d dir syncs %d",
			fs.bytes.Load(), fs.creates.Load(), fs.renames.Load(), fs.fileSyncs.Load(), fs.dirSyncs.Load())
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(n=4) on a few series.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestCompareGatesMissingMetrics checks that -compare fails a gated metric
// that one side lacks, whether the metric or its whole workload is absent,
// and passes two identical sides.
func TestCompareGatesMissingMetrics(t *testing.T) {
	var spec *Spec
	if err := json.Unmarshal([]byte(`{"workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "server_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, keep func(workload, metric string) bool) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, w := range []string{"a", "b"} {
			for _, m := range spec.EndToEnd {
				if keep(w, m.Name) {
					for seed := range uint64(3) {
						enc.Encode(metricLine{w, seed, m.Name, 1 + float64(seed), m.Unit, 1})
					}
				}
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	full := write("full.json", func(string, string) bool { return true })
	if err := Compare(spec, full, full, io.Discard); err != nil {
		t.Fatalf("identical sides: %v", err)
	}
	for name, keep := range map[string]func(w, m string) bool{
		"no-workload.json": func(w, _ string) bool { return w != "b" },
		"no-metric.json":   func(w, m string) bool { return w != "a" || m != "server_rss_mb" },
	} {
		part := write(name, keep)
		if err := Compare(spec, full, part, io.Discard); err == nil {
			t.Errorf("%s as B passed", name)
		}
		if err := Compare(spec, part, full, io.Discard); err == nil {
			t.Errorf("%s as A passed", name)
		}
	}
}

// TestAnswerKeyMatchesPaper loads the committed answer key, which
// cross-checks Table 2, Figures 6 and 7 and the Auction(n) closed form.
func TestAnswerKeyMatchesPaper(t *testing.T) {
	e, err := LoadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Cores) == 0 || len(e.Corpus) != len(corpusDialects)*len(corpusBenchmarks) || len(e.AuctionN) != len(auctionNs) {
		t.Fatalf("answer key has %d cores, %d corpus files, %d Auction(n) sizes", len(e.Cores), len(e.Corpus), len(e.AuctionN))
	}
}
