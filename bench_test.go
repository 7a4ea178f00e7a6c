// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section 7), plus ablation benches for the engine's design
// choices. Run with:
//
//	go test -bench=. -benchmem
//
// CI runs every benchmark once (-benchtime=1x) for its inline assertions;
// timings are profiling data, not a gate. The allocation bounds are tier-1
// tests, and the service benchmark under bench/ is the performance gate.
//
// Mapping:
//
//	BenchmarkTable2/*          — Table 2 (summary-graph construction per benchmark)
//	BenchmarkFigure6/*         — Figure 6 (maximal robust subsets, Algorithm 2)
//	BenchmarkFigure7/*         — Figure 7 (maximal robust subsets, type-I method of [3])
//	BenchmarkFigure8AuctionN/* — Figure 8 (Auction(n) scalability sweep)
//	BenchmarkRobustSubsets/*   — naive vs lattice-pruned subset enumeration
//	BenchmarkAblation*         — design-choice ablations
//
// Each bench prints the quantities the paper reports (edge counts, robust
// subsets, verdicts) once, then measures the end-to-end analysis time.
package mvrc

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/server"
	"repro/internal/summary"
)

// report prints a line once per benchmark name (not per iteration).
var reported sync.Map

func reportOnce(b *testing.B, format string, args ...any) {
	if _, loaded := reported.LoadOrStore(b.Name(), true); !loaded {
		b.Logf(format, args...)
	}
}

// --- Table 2: benchmark characteristics -----------------------------------

func benchmarkTable2(b *testing.B, mk func() *benchmarks.Benchmark) {
	b.ReportAllocs()
	bench := mk()
	row := experiments.Table2(bench)
	reportOnce(b, "Table 2 row: %s — %d relations, %d programs, %d nodes, %d edges (%d counterflow)",
		row.Benchmark, row.Relations, row.Programs, row.Nodes, row.Edges, row.CounterflowEdges)
	ltps := btp.UnfoldAll2(bench.Programs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := summary.Build(bench.Schema, ltps, summary.SettingAttrDepFK)
		if len(g.Edges) != row.Edges {
			b.Fatalf("edge count drifted: %d != %d", len(g.Edges), row.Edges)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	b.Run("SmallBank", func(b *testing.B) { benchmarkTable2(b, benchmarks.SmallBank) })
	b.Run("TPCC", func(b *testing.B) { benchmarkTable2(b, benchmarks.TPCC) })
	b.Run("Auction", func(b *testing.B) { benchmarkTable2(b, benchmarks.Auction) })
}

// --- Figures 6 and 7: maximal robust subsets ------------------------------

func benchmarkFigure(b *testing.B, mk func() *benchmarks.Benchmark, setting summary.Setting, method summary.Method) {
	b.ReportAllocs()
	bench := mk()
	cell, err := experiments.RobustSubsetsCell(bench, setting, method)
	if err != nil {
		b.Fatal(err)
	}
	reportOnce(b, "%s under %s (%s): %s", bench.Name, setting, method, cell)
	b.ResetTimer()
	// A fresh Checker (and therefore a cold engine session) per iteration:
	// these benches measure the full figure pipeline — unfolding, edge
	// derivation, enumeration — as the paper's timings do. The warm-session
	// regime is measured separately by BenchmarkRobustSubsets/pruned.
	for i := 0; i < b.N; i++ {
		checker := robust.NewChecker(bench.Schema)
		checker.Setting = setting
		checker.Method = method
		if _, err := checker.RobustSubsets(bench.Programs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for _, setting := range summary.AllSettings {
		setting := setting
		b.Run("SmallBank/"+setting.String(), func(b *testing.B) {
			benchmarkFigure(b, benchmarks.SmallBank, setting, summary.TypeII)
		})
		b.Run("TPCC/"+setting.String(), func(b *testing.B) {
			benchmarkFigure(b, benchmarks.TPCC, setting, summary.TypeII)
		})
		b.Run("Auction/"+setting.String(), func(b *testing.B) {
			benchmarkFigure(b, benchmarks.Auction, setting, summary.TypeII)
		})
	}
}

func BenchmarkFigure7(b *testing.B) {
	for _, setting := range summary.AllSettings {
		setting := setting
		b.Run("SmallBank/"+setting.String(), func(b *testing.B) {
			benchmarkFigure(b, benchmarks.SmallBank, setting, summary.TypeI)
		})
		b.Run("TPCC/"+setting.String(), func(b *testing.B) {
			benchmarkFigure(b, benchmarks.TPCC, setting, summary.TypeI)
		})
		b.Run("Auction/"+setting.String(), func(b *testing.B) {
			benchmarkFigure(b, benchmarks.Auction, setting, summary.TypeI)
		})
	}
}

// --- Figure 8: Auction(n) scalability --------------------------------------

// BenchmarkFigure8AuctionN sweeps the scaling factor n and measures the
// full pipeline (unfold + summary graph + Algorithm 2), mirroring the
// left plot of Figure 8; the reported edge counts mirror the right plot
// (8n + 9n² edges, n counterflow).
func BenchmarkFigure8AuctionN(b *testing.B) {
	for _, n := range []int{1, 5, 10, 20, 40, 60, 80, 100} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			bench := benchmarks.AuctionN(n)
			wantEdges, wantCF := experiments.ExpectedAuctionNEdges(n)
			reportOnce(b, "Auction(%d): %d nodes, %d edges (%d counterflow) expected", n, 3*n, wantEdges, wantCF)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ltps := btp.UnfoldAll2(bench.Programs)
				g := summary.Build(bench.Schema, ltps, summary.SettingAttrDepFK)
				robustOK, _ := g.Robust(summary.TypeII)
				if !robustOK {
					b.Fatal("Auction(n) must be robust")
				}
				if len(g.Edges) != wantEdges || g.CounterflowEdges() != wantCF {
					b.Fatalf("edge counts drifted: %d (%d)", len(g.Edges), g.CounterflowEdges())
				}
			}
		})
	}
}

// --- Naive vs pruned subset enumeration ------------------------------------

// BenchmarkRobustSubsets compares two generations of the SmallBank
// subset enumeration, per setting:
//
//	naive   — the pre-refactor path: re-unfold and re-run Algorithm 1 for
//	          each of the 2^n − 1 subsets
//	pruned  — the engine's lattice walk: level-order by subset size,
//	          minimal non-robust cores decide supersets by bitset
//	          containment, the universe graph and the core store
//	          persist in the warm session across iterations
//
// The verdict identity of both paths is asserted in internal/analysis
// (engine vs naive oracle across 3 benchmarks × 4 settings × 2 methods,
// plus random selections and random workloads); here only the cost
// differs. TestNilTracerZeroAllocOverhead (internal/analysis) bounds the
// allocations of the pruned and pruned-cold loops.
func BenchmarkRobustSubsets(b *testing.B) {
	bench := benchmarks.SmallBank()
	variants := []struct {
		name string
		run  func(b *testing.B, setting summary.Setting)
	}{
		{"naive", func(b *testing.B, setting summary.Setting) {
			checker := robust.NewChecker(bench.Schema)
			checker.Setting = setting
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := checker.NaiveRobustSubsets(bench.Programs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"pruned", func(b *testing.B, setting summary.Setting) {
			checker := robust.NewChecker(bench.Schema)
			checker.Setting = setting
			// One priming enumeration before the timer: this variant
			// measures the warm steady state (blocks cached, cores and
			// covers seeded), so a -benchtime=1x run samples the same
			// regime as a long run instead of the one-off cold start
			// (which pruned-cold and BenchmarkServerThroughput's cold
			// cases cover).
			if _, err := checker.RobustSubsets(bench.Programs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := checker.RobustSubsets(bench.Programs); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, v := range variants {
		for _, setting := range summary.AllSettings {
			setting := setting
			v := v
			b.Run(v.name+"/"+setting.String(), func(b *testing.B) {
				v.run(b, setting)
			})
		}
	}

	// The streaming pair measures cold time-to-first-verdict, both as the
	// whole-op time and as an explicit ttfv-ns/op metric:
	//
	//	stream-first-non-robust — a cold checker per iteration streams in
	//	        first_non_robust mode: its first detector miss composes the
	//	        universe graph, the first verdict follows, and the walk
	//	        stops at the first non-robust subset in ascending mask order
	//	pruned-cold — the monolithic comparator: a cold checker per
	//	        iteration runs the full lattice-pruned enumeration, whose
	//	        first verdict is only available with the final report
	b.Run("stream-first-non-robust", func(b *testing.B) {
		b.ReportAllocs()
		var ttfv time.Duration
		for i := 0; i < b.N; i++ {
			checker := robust.NewChecker(bench.Schema)
			start := time.Now()
			var first time.Duration
			_, err := checker.RobustSubsetsStream(context.Background(), bench.Programs,
				analysis.StreamOptions{Mode: analysis.StreamFirstNonRobust},
				func(analysis.StreamVerdict) error {
					if first == 0 {
						first = time.Since(start)
					}
					return nil
				})
			if err != nil {
				b.Fatal(err)
			}
			ttfv += first
		}
		b.ReportMetric(float64(ttfv.Nanoseconds())/float64(b.N), "ttfv-ns/op")
	})
	b.Run("pruned-cold", func(b *testing.B) {
		b.ReportAllocs()
		var ttfv time.Duration
		for i := 0; i < b.N; i++ {
			checker := robust.NewChecker(bench.Schema)
			start := time.Now()
			if _, err := checker.RobustSubsets(bench.Programs); err != nil {
				b.Fatal(err)
			}
			ttfv += time.Since(start)
		}
		b.ReportMetric(float64(ttfv.Nanoseconds())/float64(b.N), "ttfv-ns/op")
	})
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationTypeIIvsTypeI compares the cost of the two cycle
// conditions on the same TPC-C summary graph.
func BenchmarkAblationTypeIIvsTypeI(b *testing.B) {
	bench := benchmarks.TPCC()
	ltps := btp.UnfoldAll2(bench.Programs)
	g := summary.Build(bench.Schema, ltps, summary.SettingAttrDepFK)
	b.Run("TypeII", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Robust(summary.TypeII)
		}
	})
	b.Run("TypeI", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Robust(summary.TypeI)
		}
	})
}

// BenchmarkAblationSettings compares summary-graph construction cost across
// the four analysis settings of Section 7.2 on TPC-C.
func BenchmarkAblationSettings(b *testing.B) {
	bench := benchmarks.TPCC()
	ltps := btp.UnfoldAll2(bench.Programs)
	for _, setting := range summary.AllSettings {
		setting := setting
		b.Run(setting.String(), func(b *testing.B) {
			b.ReportAllocs()
			g := summary.Build(bench.Schema, ltps, setting)
			reportOnce(b, "TPC-C under %s: %d edges (%d counterflow)",
				setting, len(g.Edges), g.CounterflowEdges())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				summary.Build(bench.Schema, ltps, setting)
			}
		})
	}
}

// BenchmarkAblationUnfoldBound varies the loop-unfolding bound on TPC-C.
// Bound 2 is the paper's sound choice (Proposition 6.1); bound 1 is
// cheaper but unsound in general; bound 3 only grows the graph.
func BenchmarkAblationUnfoldBound(b *testing.B) {
	bench := benchmarks.TPCC()
	for _, bound := range []int{1, 2, 3} {
		bound := bound
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			b.ReportAllocs()
			ltps := btp.UnfoldAll(bench.Programs, bound)
			g := summary.Build(bench.Schema, ltps, summary.SettingAttrDepFK)
			robustOK, _ := g.Robust(summary.TypeII)
			reportOnce(b, "bound %d: %d LTPs, %d edges, full-set robust=%t",
				bound, len(ltps), len(g.Edges), robustOK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := btp.UnfoldAll(bench.Programs, bound)
				gg := summary.Build(bench.Schema, l, summary.SettingAttrDepFK)
				gg.Robust(summary.TypeII)
			}
		})
	}
}

// BenchmarkAblationReachability compares the optimized pair-centric cycle
// search against the literal triple-loop transcription of Algorithm 2, on
// Auction(n) graphs of growing size. Each graph is built once, and both
// sides compute the node-closure fixpoint per call (it lives in the cycle
// search, not in graph construction), so the comparison isolates the
// search strategy.
func BenchmarkAblationReachability(b *testing.B) {
	for _, n := range []int{5, 10, 20} {
		n := n
		bench := benchmarks.AuctionN(n)
		ltps := btp.UnfoldAll2(bench.Programs)
		g := summary.Build(bench.Schema, ltps, summary.SettingAttrDepFK)
		b.Run(fmt.Sprintf("pair-centric/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Robust(summary.TypeII)
			}
		})
		b.Run(fmt.Sprintf("literal/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.HasTypeIICycleLiteral()
			}
		})
	}
}

// BenchmarkSummaryGraphConstruction isolates Algorithm 1 on the largest
// fixed benchmark (TPC-C) for allocation profiling.
func BenchmarkSummaryGraphConstruction(b *testing.B) {
	bench := benchmarks.TPCC()
	ltps := btp.UnfoldAll2(bench.Programs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		summary.Build(bench.Schema, ltps, summary.SettingAttrDepFK)
	}
}

// BenchmarkUnfold isolates Unfold≤2 on TPC-C.
func BenchmarkUnfold(b *testing.B) {
	bench := benchmarks.TPCC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		btp.UnfoldAll2(bench.Programs)
	}
}

// --- Server throughput ------------------------------------------------------

// BenchmarkServerThroughput measures end-to-end requests/sec of the
// robustness service on a SmallBank workload, recorded alongside
// BenchmarkRobustSubsets (the underlying enumeration cost):
//
//	check/cold     — register + first full check per iteration: pays
//	                 validation, unfolding and all 25 pairwise edge blocks
//	check/warm     — repeated full checks on one registered workload:
//	                 pure cache reads + cycle detection + HTTP
//	subsets/cold   — register + first enumeration per iteration
//	subsets/warm   — repeated enumerations from the warm BlockSet
func BenchmarkServerThroughput(b *testing.B) {
	bench := benchmarks.SmallBank()

	post := func(b *testing.B, url string) {
		resp, err := http.Post(url, "application/json", nil)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}

	cold := func(path string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv := server.New(server.Options{})
				ts := httptest.NewServer(srv.Handler())
				reg, err := srv.Register(bench.Schema, bench.Programs)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				post(b, ts.URL+"/v1/workloads/"+reg.ID+"/"+path)
				b.StopTimer()
				ts.Close()
				srv.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		}
	}
	warm := func(path string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			srv := server.New(server.Options{})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			reg, err := srv.Register(bench.Schema, bench.Programs)
			if err != nil {
				b.Fatal(err)
			}
			url := ts.URL + "/v1/workloads/" + reg.ID + "/" + path
			post(b, url) // prime the block cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, url)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		}
	}

	b.Run("check/cold", cold("check"))
	b.Run("check/warm", warm("check"))
	b.Run("subsets/cold", cold("subsets"))
	b.Run("subsets/warm", warm("subsets"))
}
