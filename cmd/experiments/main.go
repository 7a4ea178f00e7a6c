// Command experiments regenerates the paper's full evaluation (Section 7):
// Table 2, Figure 6, Figure 7 and the Figure 8 scalability sweep, printing
// everything in a layout mirroring the paper. EXPERIMENTS.md is produced
// from this command's output.
//
// Usage:
//
//	experiments [-maxn 100] [-repeats 3] [-skip-figure8]
//
// All cells run on one experiments.Suite: each benchmark's programs are
// unfolded once and the pairwise summary-graph edge blocks are shared
// across Table 2 and every Figure 6/7 cell. Every cell and every Figure 8
// check runs on one goroutine.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		maxN        = flag.Int("maxn", 100, "largest Auction(n) scaling factor for Figure 8")
		repeats     = flag.Int("repeats", 3, "repetitions per Figure 8 point (median reported)")
		skipFigure8 = flag.Bool("skip-figure8", false, "skip the scalability sweep")
		version     = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "experiments")
		return
	}

	suite := experiments.NewSuite()

	fmt.Println("== Table 2: benchmark characteristics (attr dep + FK) ==")
	fmt.Print(experiments.FormatTable2(suite.Table2()))

	fmt.Println("\n== Figure 6: maximal robust subsets, Algorithm 2 (type-II cycles) ==")
	cells, err := suite.Figure6()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Print(experiments.FormatFigure(cells))

	fmt.Println("\n== Figure 7: maximal robust subsets, method of [3] (type-I cycles) ==")
	cells, err = suite.Figure7()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Print(experiments.FormatFigure(cells))

	if !*skipFigure8 {
		fmt.Println("\n== Figure 8: Auction(n) scalability (attr dep + FK, type-II) ==")
		var ns []int
		for _, n := range []int{1, 2, 5, 10, 20, 40, 60, 80, 100} {
			if n <= *maxN {
				ns = append(ns, n)
			}
		}
		points := experiments.Figure8(ns, *repeats)
		fmt.Print(experiments.FormatFigure8(points))
	}
}
