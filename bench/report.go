package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// Spec is the part of BENCHMARK.json the benchmark reads: the workloads
// and the metrics with their units, directions and regression bounds.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric of BENCHMARK.json; Bound is the share of the
// baseline median by which an end-to-end metric may worsen.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json at the repository root.
func LoadSpec(root string) (*Spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// perLayerNames is the traced run's result-line metric set, in
// BENCHMARK.json order.
func perLayerNames() []string {
	names := []string{
		"sqlbtp.compile_us", "sqlbtp.compile_allocs",
		"btp.unfold_us", "btp.ltps",
		"summary.pairs_us", "summary.pairs_computed",
		"summary.compose_us", "summary.detect_us", "summary.edges", "summary.block_hit_ratio",
		"analysis.check_us", "analysis.subsets_us", "analysis.ttfv_us", "analysis.pruned_ratio", "analysis.session_bytes",
		"certify.subset_ms", "certify.candidates_us", "certify.search_ms", "certify.replay_us",
		"certify.explored", "certify.certified_ratio",
		"wire.decode_us", "wire.encode_us", "wire.response_bytes",
	}
	for _, prefix := range []string{"server.handler_us.", "server.unattributed_share.", "net.loopback_us."} {
		for _, op := range handlerOps {
			names = append(names, prefix+op)
		}
	}
	return append(names,
		"server.result_cache_hit_ratio", "server.evictions", "server.shed_total",
		"snapshot.flush_ms", "snapshot.bytes_per_patch", "snapshot.fsyncs_per_patch",
		"trace.overhead_pct")
}

// metricLine is how every metric is printed: one JSON object per line,
// tagged with its run, so -compare can collect runs from saved output.
type metricLine struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Print writes every metric as a JSON line, then the result line; a table
// of the same numbers goes to human.
func (r *Report) Print(out, human io.Writer) error {
	enc := json.NewEncoder(out)
	tw := tabwriter.NewWriter(human, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s seed %d\tvalue\tunit\tn\t\n", r.Workload, r.Seed)
	for _, m := range append(append([]Metric(nil), r.Metrics...), r.Extra...) {
		if err := enc.Encode(metricLine{r.Workload, r.Seed, m.Name, m.Value, m.Unit, m.N}); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t\n", m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(tw, "attempted %d, failed %d, wrong answers %d\t\t\t\t\n", r.Attempted, r.Failed, r.Wrong)
	tw.Flush()
	for _, e := range r.Errors {
		fmt.Fprintln(human, "error:", e)
	}
	res := resultLine{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for _, m := range r.Metrics {
		res.Metrics[m.Name] = resultValue{m.Value, m.Unit}
	}
	return enc.Encode(res)
}

// Compare reads two files of saved output (any number of runs each),
// prints one row per workload and metric with each side's median and
// quartiles, and passes or fails every end-to-end metric against its
// BENCHMARK.json bound. It returns an error when a metric fails.
func Compare(spec *Spec, pathA, pathB string, out io.Writer) error {
	a, err := readMetricLines(pathA)
	if err != nil {
		return err
	}
	b, err := readMetricLines(pathB)
	if err != nil {
		return err
	}
	gated := map[string]SpecMetric{}
	for _, m := range spec.EndToEnd {
		gated[m.Name] = m
	}
	order := map[string]int{}
	for i, m := range append(append([]SpecMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		order[m.Name] = i + 1
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (runs)\tB median [q1, q3] (runs)\tB vs A\tbound\tverdict")
	failed := 0
	for _, w := range workloads {
		names := map[string]bool{}
		for n := range gated {
			names[n] = true
		}
		for n := range a[w] {
			names[n] = true
		}
		for n := range b[w] {
			names[n] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Slice(sorted, func(i, j int) bool {
			oi, oj := order[sorted[i]], order[sorted[j]]
			if oi == 0 || oj == 0 {
				if oi != oj {
					return oj == 0
				}
				return sorted[i] < sorted[j]
			}
			return oi < oj
		})
		for _, n := range sorted {
			xa, xb := a[w][n], b[w][n]
			row := fmt.Sprintf("%s\t%s\t%s\t%s\t%s", w, n, unitOf(xa, xb), describe(xa), describe(xb))
			spec, ok := gated[n]
			if len(xa.values) == 0 || len(xb.values) == 0 {
				// A gated metric missing on either side (a crashed run, a
				// workload left out) cannot be shown to be within bound.
				if ok {
					fmt.Fprintf(tw, "%s\t\t%.0f%%\tFAIL (missing)\n", row, 100*spec.Bound)
					failed++
				} else {
					fmt.Fprintf(tw, "%s\t\t\t\n", row)
				}
				continue
			}
			ma, mb := median(xa.values), median(xb.values)
			change := ratio(mb-ma, ma)
			if !ok {
				fmt.Fprintf(tw, "%s\t%+.1f%%\t\t\n", row, 100*change)
				continue
			}
			worse := change
			if spec.Better == "higher" {
				worse = -change
			}
			verdict := "pass"
			if worse > spec.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(tw, "%s\t%+.1f%%\t%.0f%%\t%s\n", row, 100*change, 100*spec.Bound, verdict)
		}
	}
	tw.Flush()
	if failed > 0 {
		return fmt.Errorf("%d end-to-end metric(s) worse than their bound", failed)
	}
	return nil
}

type series struct {
	unit   string
	values []float64
}

func unitOf(a, b series) string {
	if a.unit != "" {
		return a.unit
	}
	return b.unit
}

// describe renders a series' median and quartiles, as Python's
// statistics.median and statistics.quantiles(n=4) compute them, with the
// quartile spread as a share of the median.
func describe(s series) string {
	if len(s.values) == 0 {
		return "-"
	}
	m := median(s.values)
	if len(s.values) < 2 {
		return fmt.Sprintf("%.4g (1)", m)
	}
	q := quartiles(s.values)
	return fmt.Sprintf("%.4g [%.4g, %.4g] ±%.1f%% (%d)", m, q[0], q[2], 100*ratio(q[2]-q[0], m), len(s.values))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles is statistics.quantiles(xs, n=4) with the default exclusive
// method.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n, m := 4, len(d)+1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return out
}

// readMetricLines collects metric lines by workload and metric name.
func readMetricLines(path string) (map[string]map[string]series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l metricLine
		if json.Unmarshal(sc.Bytes(), &l) != nil || l.Metric == "" {
			continue
		}
		if out[l.Workload] == nil {
			out[l.Workload] = map[string]series{}
		}
		s := out[l.Workload][l.Metric]
		s.unit = l.Unit
		s.values = append(s.values, l.Value)
		out[l.Workload][l.Metric] = s
	}
	return out, sc.Err()
}
