// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7): Table 2 (benchmark characteristics), Figure 6
// (robust subsets via type-II cycles, Algorithm 2), Figure 7 (robust
// subsets via type-I cycles, the method of Alomari and Fekete [3]) and
// Figure 8 (scalability on Auction(n)).
//
// All cells of one run are computed on a Suite, which holds one
// analysis.Session per benchmark: each benchmark's programs are unfolded
// once and the pairwise edge blocks of Algorithm 1 are cached per setting,
// so the 4 settings × 2 methods × 2^n−1 subset checks behind Figures 6 and
// 7 share one incremental engine instead of rebuilding everything per cell.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/robust"
	"repro/internal/summary"
)

// Suite bundles the three fixed benchmarks with their shared analysis
// sessions.
type Suite struct {
	benchmarks []*benchmarks.Benchmark
	sessions   map[*benchmarks.Benchmark]*analysis.Session
}

// NewSuite creates a suite over the three fixed benchmarks of Section 7.
func NewSuite() *Suite {
	s := &Suite{sessions: map[*benchmarks.Benchmark]*analysis.Session{}}
	for _, b := range []*benchmarks.Benchmark{
		benchmarks.SmallBank(), benchmarks.TPCC(), benchmarks.Auction(),
	} {
		s.benchmarks = append(s.benchmarks, b)
	}
	return s
}

// Session returns the suite's shared session for the benchmark, creating
// it on first use. Benchmarks not constructed by the suite get their own
// session keyed by identity.
func (s *Suite) Session(b *benchmarks.Benchmark) *analysis.Session {
	sess, ok := s.sessions[b]
	if !ok {
		sess = analysis.NewSession(b.Schema)
		s.sessions[b] = sess
	}
	return sess
}

// Benchmarks returns the suite's benchmarks in Table 2 order.
func (s *Suite) Benchmarks() []*benchmarks.Benchmark { return s.benchmarks }

// Table2Row reports the summary-graph characteristics of one benchmark
// under the paper's primary setting (attribute granularity with foreign
// keys), as in Table 2.
type Table2Row struct {
	Benchmark        string
	Relations        int
	Programs         int
	Nodes            int // unfolded transaction programs
	Edges            int
	CounterflowEdges int
}

// Table2 computes the characteristics row for a benchmark on a throwaway
// session.
func Table2(b *benchmarks.Benchmark) Table2Row {
	return table2(analysis.NewSession(b.Schema), b)
}

func table2(sess *analysis.Session, b *benchmarks.Benchmark) Table2Row {
	res, err := sess.Check(b.Programs, analysis.DefaultConfig())
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", b.Name, err))
	}
	st := res.Graph.Stats()
	return Table2Row{
		Benchmark:        b.Name,
		Relations:        len(b.Schema.Relations()),
		Programs:         len(b.Programs),
		Nodes:            st.Nodes,
		Edges:            st.Edges,
		CounterflowEdges: st.CounterflowEdges,
	}
}

// Table2 computes Table 2 on the suite's shared sessions.
func (s *Suite) Table2() []Table2Row {
	rows := make([]Table2Row, 0, len(s.benchmarks))
	for _, b := range s.benchmarks {
		rows = append(rows, table2(s.Session(b), b))
	}
	return rows
}

// Table2All computes Table 2 for the three fixed benchmarks.
func Table2All() []Table2Row {
	return NewSuite().Table2()
}

// FormatTable2 renders rows in the layout of Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %7s %18s\n", "benchmark", "relations", "programs", "nodes", "edges (counterflow)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9d %9d %7d %11d (%d)\n",
			r.Benchmark, r.Relations, r.Programs, r.Nodes, r.Edges, r.CounterflowEdges)
	}
	return b.String()
}

// SubsetCell is one cell of Figure 6 / Figure 7: the maximal robust subsets
// of one benchmark under one setting and method.
type SubsetCell struct {
	Benchmark string
	Setting   summary.Setting
	Method    summary.Method
	Maximal   []robust.Subset
}

// String renders the cell's subsets, largest first.
func (c SubsetCell) String() string {
	parts := make([]string, len(c.Maximal))
	for i, s := range c.Maximal {
		parts[i] = s.String()
	}
	return strings.Join(parts, ", ")
}

// RobustSubsetsCell computes the maximal robust subsets of a benchmark
// under one setting and method on a throwaway session.
func RobustSubsetsCell(b *benchmarks.Benchmark, setting summary.Setting, method summary.Method) (SubsetCell, error) {
	return subsetsCell(analysis.NewSession(b.Schema), b, setting, method)
}

func subsetsCell(sess *analysis.Session, b *benchmarks.Benchmark, setting summary.Setting, method summary.Method) (SubsetCell, error) {
	rep, err := sess.RobustSubsets(b.Programs, analysis.Config{Setting: setting, Method: method})
	if err != nil {
		return SubsetCell{}, fmt.Errorf("experiments: %s under %s: %w", b.Name, setting, err)
	}
	return SubsetCell{Benchmark: b.Name, Setting: setting, Method: method, Maximal: rep.Maximal}, nil
}

// FigureRows computes one full figure (all four settings for every given
// benchmark) under the given method on the suite's shared sessions:
// summary.TypeII reproduces Figure 6, summary.TypeI reproduces Figure 7.
func (s *Suite) FigureRows(method summary.Method) ([]SubsetCell, error) {
	var out []SubsetCell
	for _, setting := range summary.AllSettings {
		for _, b := range s.benchmarks {
			cell, err := subsetsCell(s.Session(b), b, setting, method)
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// FigureRows computes one full figure for the given benchmarks on
// throwaway per-benchmark sessions (shared across the four settings).
func FigureRows(method summary.Method, bs ...*benchmarks.Benchmark) ([]SubsetCell, error) {
	sessions := make(map[*benchmarks.Benchmark]*analysis.Session, len(bs))
	for _, b := range bs {
		sessions[b] = analysis.NewSession(b.Schema)
	}
	var out []SubsetCell
	for _, setting := range summary.AllSettings {
		for _, b := range bs {
			cell, err := subsetsCell(sessions[b], b, setting, method)
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// Figure6 computes Figure 6 (Algorithm 2, type-II cycles).
func (s *Suite) Figure6() ([]SubsetCell, error) { return s.FigureRows(summary.TypeII) }

// Figure7 computes Figure 7 (method of [3], type-I cycles).
func (s *Suite) Figure7() ([]SubsetCell, error) { return s.FigureRows(summary.TypeI) }

// Figure6 computes Figure 6 (Algorithm 2, type-II cycles) for the three
// benchmarks.
func Figure6() ([]SubsetCell, error) {
	return NewSuite().Figure6()
}

// Figure7 computes Figure 7 (method of [3], type-I cycles).
func Figure7() ([]SubsetCell, error) {
	return NewSuite().Figure7()
}

// FormatFigure renders figure cells grouped by setting.
func FormatFigure(cells []SubsetCell) string {
	var b strings.Builder
	bySetting := map[string][]SubsetCell{}
	var order []string
	for _, c := range cells {
		k := c.Setting.String()
		if _, ok := bySetting[k]; !ok {
			order = append(order, k)
		}
		bySetting[k] = append(bySetting[k], c)
	}
	for _, k := range order {
		fmt.Fprintf(&b, "%s:\n", k)
		for _, c := range bySetting[k] {
			fmt.Fprintf(&b, "  %-10s %s\n", c.Benchmark, c.String())
		}
	}
	return b.String()
}

// Figure8Point is one measurement of the Auction(n) scalability experiment.
type Figure8Point struct {
	N                int
	Nodes            int
	Edges            int
	CounterflowEdges int
	Robust           bool
	// BuildTime is the time to construct the summary graph (Algorithm 1's
	// edges and the adjacency index); DetectTime the time for the type-II
	// cycle search, which includes the node-closure fixpoint; Total their
	// sum plus unfolding.
	BuildTime  time.Duration
	DetectTime time.Duration
	Total      time.Duration
}

// Figure8 runs the Auction(n) scalability experiment for each n, repeating
// each measurement `repeats` times and keeping the median total time (the
// paper reports means of 10 runs with confidence intervals; medians are
// more stable for a reproduction). Each repetition runs on a cold session,
// so the timings measure the full pipeline — unfolding, Algorithm 1 edge
// derivation and cycle detection — not cache hits.
func Figure8(ns []int, repeats int) []Figure8Point {
	if repeats < 1 {
		repeats = 1
	}
	out := make([]Figure8Point, 0, len(ns))
	for _, n := range ns {
		b := benchmarks.AuctionN(n)
		var best Figure8Point
		totals := make([]time.Duration, 0, repeats)
		for r := 0; r < repeats; r++ {
			p := measureAuctionN(b, n)
			totals = append(totals, p.Total)
			if r == 0 {
				best = p
			}
		}
		sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
		best.Total = totals[len(totals)/2]
		out = append(out, best)
	}
	return out
}

func measureAuctionN(b *benchmarks.Benchmark, n int) Figure8Point {
	sess := analysis.NewSession(b.Schema)
	start := time.Now()
	var ltps []*btp.LTP
	for _, p := range b.Programs {
		ls, err := sess.LTPs(p, 0)
		if err != nil {
			panic(fmt.Sprintf("experiments: Auction(%d): %v", n, err))
		}
		ltps = append(ltps, ls...)
	}
	t0 := time.Now()
	g := summary.Compose(sess.Blocks(summary.SettingAttrDepFK), ltps)
	t1 := time.Now()
	robustOK, _ := g.Robust(summary.TypeII)
	t2 := time.Now()
	st := g.Stats()
	return Figure8Point{
		N: n, Nodes: st.Nodes, Edges: st.Edges, CounterflowEdges: st.CounterflowEdges,
		Robust:     robustOK,
		BuildTime:  t1.Sub(t0),
		DetectTime: t2.Sub(t1),
		Total:      t2.Sub(start),
	}
}

// FormatFigure8 renders the scalability measurements as two aligned series
// (time and edge count), mirroring the two plots of Figure 8.
func FormatFigure8(points []Figure8Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %7s %9s %13s %12s %8s\n", "n", "nodes", "edges", "counterflow", "total time", "robust")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %7d %9d %13d %12s %8t\n",
			p.N, p.Nodes, p.Edges, p.CounterflowEdges, p.Total.Round(time.Microsecond), p.Robust)
	}
	return b.String()
}

// ExpectedAuctionNEdges is the closed form of Table 2 for Auction(n):
// 8n + 9n² total edges, n of them counterflow.
func ExpectedAuctionNEdges(n int) (edges, counterflow int) {
	return 8*n + 9*n*n, n
}
