// BenchmarkIntraCheck measures the latency of a SINGLE cold robustness
// check as the universe grows, as opposed to the subset enumeration of
// BenchmarkRobustSubsets. Each iteration runs the full cold pipeline on an
// Auction(n) universe (~9n² summary-graph edges): Algorithm 1's pairwise
// edge derivation and graph assembly in Compose, then the node-closure
// fixpoint and the type-II cycle search in Robust, all on the calling
// goroutine. Construction dominates end to end.
//
// Reproduce with:
//
//	go test -bench 'BenchmarkIntraCheck' -benchtime 20x .
package mvrc

import (
	"fmt"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/summary"
)

func BenchmarkIntraCheck(b *testing.B) {
	for _, n := range []int{10, 20, 40} {
		bench := benchmarks.AuctionN(n)
		ltps := btp.UnfoldAll2(bench.Programs)
		b.Run(fmt.Sprintf("Auction-n%d/sequential", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A cold block cache per iteration: the benchmark
				// measures first-check latency, not warm cache reads.
				bs := summary.NewBlockSet(bench.Schema, summary.SettingAttrDepFK)
				ok, _ := summary.Compose(bs, ltps).Robust(summary.TypeII)
				if !ok {
					b.Fatal("Auction(n) must be robust under attr+fk/type-II")
				}
			}
		})
	}
}
