// Engine and search benchmarks complementing the per-figure harness in
// bench_test.go:
//
//	BenchmarkEngineIsolation/*  — SmallBank throughput on the MVCC engine
//	                              under RC / SI / S2PL, the performance
//	                              motivation the paper cites for running
//	                              robust workloads at the lower level
//	BenchmarkRealizeWitness       — witness realization end to end
//	                                (candidates, search and replay)
//	BenchmarkSQLParse             — SQL → BTP translation of TPC-C
package mvrc

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/mvcc"
	"repro/internal/robust"
	"repro/internal/sqlbtp"
	"repro/internal/summary"
	"repro/internal/workload"
)

// BenchmarkEngineIsolation measures committed-transaction throughput of the
// robust SmallBank subset {Am, DC, TS} under the three isolation levels.
// The robustness result is what licenses picking the cheapest row: the
// subset is serializable under plain Read Committed.
func BenchmarkEngineIsolation(b *testing.B) {
	cfg := workload.SmallBankConfig{Customers: 4, InitialBalance: 1000}
	for _, iso := range []mvcc.Isolation{mvcc.ReadCommitted, mvcc.SnapshotIsolation, mvcc.Serializable} {
		iso := iso
		b.Run(iso.String(), func(b *testing.B) {
			b.ReportAllocs()
			engine := workload.NewSmallBankEngine(cfg)
			mix, err := workload.SmallBankSubsetMix(cfg, "Am", "DC", "TS")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := workload.Run(engine, mix, workload.RunOptions{
				Transactions: b.N,
				Workers:      8,
				Isolation:    iso,
				Seed:         1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Commits)/float64(b.N), "commit-ratio")
		})
	}
}

// BenchmarkRealizeWitness measures witness realization for {Bal, Am}
// through Realize: candidate instantiation, the counterexample search and
// the engine replay together.
func BenchmarkRealizeWitness(b *testing.B) {
	b.ReportAllocs()
	bench := benchmarks.SmallBank()
	checker := robust.NewChecker(bench.Schema)
	res, err := checker.Check([]*btp.Program{bench.Program("Balance"), bench.Program("Amalgamate")})
	if err != nil {
		b.Fatal(err)
	}
	if res.Robust {
		b.Fatal("{Bal, Am} should not be robust")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Realize(bench.Schema, res)
		if err != nil {
			b.Fatal(err)
		}
		if r.Status != certify.Certified {
			b.Fatalf("status = %s (%s)", r.Status, r.Reason)
		}
	}
}

// BenchmarkSQLParse measures the SQL → BTP translation of the full TPC-C
// program suite.
func BenchmarkSQLParse(b *testing.B) {
	schema := benchmarks.TPCCSchema()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlbtp.Parse(schema, benchmarks.TPCCSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTypeIWitnessExtraction measures type-I detection with witness
// assembly on TPC-C (the dense 396-edge graph). The graph is built once, so
// each iteration is Robust alone: the node-closure fixpoint (which Robust
// computes per query, not at construction), the counterflow scan and the
// witness path search.
func BenchmarkTypeIWitnessExtraction(b *testing.B) {
	b.ReportAllocs()
	bench := benchmarks.TPCC()
	checker := robust.NewChecker(bench.Schema)
	checker.Method = summary.TypeI
	res, err := checker.Check(bench.Programs)
	if err != nil {
		b.Fatal(err)
	}
	g := res.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := g.Robust(summary.TypeI); ok {
			b.Fatal("full TPC-C must have a type-I cycle")
		}
	}
}
