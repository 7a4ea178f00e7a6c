package analysis_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/obs"
	"repro/internal/relschema"
	"repro/internal/robust"
	"repro/internal/summary"
	"repro/internal/workload"
)

// TestWalkRandomWorkloads runs the lattice walk on seeded random workloads
// (workload.RandomBTPs), whose FK chains, predicate shapes and program
// structure the three fixed benchmarks never reach. For every seed,
// setting and method:
//
//   - RobustSubsetsCtx must equal the naive per-subset oracle on the
//     robust and maximal sets;
//   - a full streaming walk (the same walk with a verdict callback) on a
//     fresh session must report exactly what the collecting walk reports
//     — Checked, Pruned, Cores and CertifiedCores included — both on cold
//     sessions and on sessions seeded with a certified core;
//   - every complete walk decides each of the 2^n − 1 subsets once:
//     Checked + Pruned == 2^n − 1.
//
// A second sweep takes the first eight-program workloads the generator
// produces, whose lattices are four times wider.
func TestWalkRandomWorkloads(t *testing.T) {
	seeds, wide := 200, 4
	if testing.Short() {
		seeds, wide = 40, 1
	}
	sweep := func(seed int, w *workload.RandomWorkload) {
		for _, setting := range summary.AllSettings {
			for _, method := range methods {
				cfg := analysis.Config{Setting: setting, Method: method}
				name := fmt.Sprintf("seed %d (%d programs) %s/%s", seed, len(w.Programs), setting, method)
				checkRandomWalk(t, name, w.Schema, w.Programs, cfg)
			}
		}
	}
	for seed := 0; seed < seeds; seed++ {
		sweep(seed, workload.RandomBTPs(rand.New(rand.NewSource(int64(seed))), workload.RandomOptions{MaxPrograms: 6}))
	}
	for seed, found := 0, 0; found < wide; seed++ {
		w := workload.RandomBTPs(rand.New(rand.NewSource(int64(seed))), workload.RandomOptions{MaxPrograms: 8})
		if len(w.Programs) == 8 {
			found++
			sweep(seed, w)
		}
	}
}

// TestWalkProbe: before level 1 the walk runs the detector once on the
// full selection. Auction(6) under attr+FK is robust, so one detector run
// decides all 4,095 subsets and the report is still the naive oracle's.
// SmallBank and TPC-C have no robust full selection in any setting, so
// the probe's verdict is discarded and every cell keeps the counts the
// bottom-up walk alone reaches.
func TestWalkProbe(t *testing.T) {
	bench := benchmarks.AuctionN(6)
	cfg := analysis.DefaultConfig()
	rep, err := analysis.NewSession(bench.Schema).RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 || rep.Pruned != 4094 {
		t.Errorf("cold Auction(6) attr+FK type-II walk: checked=%d pruned=%d, want 1/4094", rep.Checked, rep.Pruned)
	}
	oracle := robust.NewChecker(bench.Schema)
	want, err := oracle.NaiveRobustSubsets(bench.Programs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Robust, want.Robust) || !reflect.DeepEqual(rep.Maximal, want.Maximal) {
		t.Errorf("probed walk diverges from the naive oracle\nwalk:   %v\noracle: %v", rep.Maximal, want.Maximal)
	}

	// Checked/pruned per setting, type-II then type-I.
	counts := map[string]map[summary.Setting][2][2]int{
		"SmallBank": {
			summary.SettingTplDep:    {{13, 18}, {12, 19}},
			summary.SettingAttrDep:   {{13, 18}, {12, 19}},
			summary.SettingTplDepFK:  {{13, 18}, {12, 19}},
			summary.SettingAttrDepFK: {{13, 18}, {12, 19}},
		},
		"TPC-C": {
			summary.SettingTplDep:    {{8, 23}, {8, 23}},
			summary.SettingAttrDep:   {{8, 23}, {8, 23}},
			summary.SettingTplDepFK:  {{8, 23}, {8, 23}},
			summary.SettingAttrDepFK: {{12, 19}, {11, 20}},
		},
	}
	for _, bench := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.TPCC()} {
		for _, setting := range summary.AllSettings {
			for i, method := range methods {
				rep, err := analysis.NewSession(bench.Schema).RobustSubsets(bench.Programs, analysis.Config{Setting: setting, Method: method})
				if err != nil {
					t.Fatal(err)
				}
				want := counts[bench.Name][setting][i]
				if got := [2]int{rep.Checked, rep.Pruned}; got != want {
					t.Errorf("%s %s %s: checked/pruned %v, want %v", bench.Name, setting, method, got, want)
				}
			}
		}
	}
}

// TestWalkFirstMissOnDeepLevel: a walk whose first detector miss lands on
// a deep level composes the universe graph once and streams what a cold
// walk reports, in ascending mask order. Imported facts decide levels 1–3
// of Auction(4)'s eight programs, so the first misses are among level 4's
// 70 masks.
func TestWalkFirstMissOnDeepLevel(t *testing.T) {
	bench := benchmarks.AuctionN(4)
	cfg := analysis.Config{}
	cold := analysis.NewSession(bench.Schema)
	want, err := cold.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var covers, cores []analysis.CoreFact
	for _, s := range want.Robust {
		if len(s) <= 3 {
			covers = append(covers, analysis.CoreFact{Setting: cfg.Setting, Method: cfg.Method, Programs: selectPrograms(t, bench, s)})
		}
	}
	for _, f := range cold.ExportCores() {
		if len(f.Programs) <= 3 {
			cores = append(cores, f)
		}
	}
	sess := analysis.NewSession(bench.Schema)
	sess.ImportCovers(covers)
	sess.ImportCores(cores)

	rec := obs.NewSpanRecorder()
	cfg.Tracer = rec
	var got []analysis.StreamVerdict
	detected := 0
	sum, err := sess.RobustSubsetsStream(context.Background(), bench.Programs, cfg, analysis.StreamOptions{},
		func(v analysis.StreamVerdict) error {
			if v.DecidedBy == analysis.DecidedDetector {
				if v.Size <= 3 {
					t.Errorf("%v ran the detector below level 4", v.Programs)
				}
				detected++
			}
			got = append(got, v)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	checkAscending(t, "seeded stream", bench.Programs, got)
	if detected == 0 {
		t.Fatal("no detector run: the fixture no longer reaches a deep first miss")
	}
	if !reflect.DeepEqual(sum.Report.Robust, want.Robust) || !reflect.DeepEqual(sum.Report.Maximal, want.Maximal) {
		t.Errorf("seeded stream diverges from the cold walk\nstream: %v\ncold:   %v", sum.Report.Robust, want.Robust)
	}
	if got := phaseMap(rec.Snapshot())[obs.PhaseCompose].Count; got != 1 {
		t.Errorf("%d compose spans, want the first miss's one", got)
	}
}

func checkRandomWalk(t *testing.T, name string, schema *relschema.Schema, programs []*btp.Program, cfg analysis.Config) {
	t.Helper()
	cold := analysis.NewSession(schema)
	got, err := cold.RobustSubsetsCtx(context.Background(), programs, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	oracle := robust.NewChecker(schema)
	oracle.Setting = cfg.Setting
	oracle.Method = cfg.Method
	want, err := oracle.NaiveRobustSubsets(programs)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !reflect.DeepEqual(got.Robust, want.Robust) || !reflect.DeepEqual(got.Maximal, want.Maximal) {
		t.Fatalf("%s: walk diverges from the naive oracle\nwalk:   %v\noracle: %v", name, got.Robust, want.Robust)
	}
	total := 1<<len(programs) - 1
	if got.Checked+got.Pruned != total {
		t.Fatalf("%s: checked %d + pruned %d, want %d subsets", name, got.Checked, got.Pruned, total)
	}

	streamed := streamReport(t, name, analysis.NewSession(schema), programs, cfg)
	if !reflect.DeepEqual(streamed, got) {
		t.Fatalf("%s: cold streaming report diverges\nstream:  %s\ncollect: %s", name, reportShape(streamed), reportShape(got))
	}
	for k := 1; k <= len(got.Robust)+1; k++ {
		if top, want := analysis.TopKBySize(got.Robust, k), topKBySort(got.Robust, k); !reflect.DeepEqual(top, want) {
			t.Fatalf("%s: top-%d diverges from the sorting referee\ntop:  %v\nwant: %v", name, k, top, want)
		}
	}

	cores := cold.ExportCores()
	if len(cores) == 0 {
		return
	}
	seeded := func() *analysis.Session {
		s := analysis.NewSession(schema)
		if !s.CertifyCore(cfg, cores[0].Programs) {
			t.Fatalf("%s: CertifyCore refused core %v", name, coreNames(cores[0].Programs))
		}
		return s
	}
	collected, err := seeded().RobustSubsetsCtx(context.Background(), programs, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if collected.CertifiedCores != 1 {
		t.Fatalf("%s: seeded walk reports %d certified cores, want 1", name, collected.CertifiedCores)
	}
	if collected.Checked+collected.Pruned != total {
		t.Fatalf("%s: seeded walk checked %d + pruned %d, want %d subsets", name, collected.Checked, collected.Pruned, total)
	}
	if streamed := streamReport(t, name, seeded(), programs, cfg); !reflect.DeepEqual(streamed, collected) {
		t.Fatalf("%s: seeded streaming report diverges\nstream:  %s\ncollect: %s", name, reportShape(streamed), reportShape(collected))
	}
}

// topKBySort is the sorting referee of the top_k ranking: it copies the
// robust list, sorts it size-descending with a lexicographic tiebreak and
// truncates it to k.
func topKBySort(robust []analysis.Subset, k int) []analysis.Subset {
	sorted := append([]analysis.Subset(nil), robust...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if len(sorted[i]) != len(sorted[j]) {
			return len(sorted[i]) > len(sorted[j])
		}
		for x := range sorted[i] {
			if sorted[i][x] != sorted[j][x] {
				return sorted[i][x] < sorted[j][x]
			}
		}
		return false
	})
	if k < len(sorted) {
		sorted = sorted[:k]
	}
	return sorted
}

// streamReport runs a full streaming walk and returns its summary report,
// checking that every subset was emitted.
func streamReport(t *testing.T, name string, sess *analysis.Session, programs []*btp.Program, cfg analysis.Config) *analysis.SubsetReport {
	t.Helper()
	emitted := 0
	sum, err := sess.RobustSubsetsStream(context.Background(), programs, cfg, analysis.StreamOptions{},
		func(analysis.StreamVerdict) error { emitted++; return nil })
	if err != nil {
		t.Fatalf("%s: stream: %v", name, err)
	}
	if total := 1<<len(programs) - 1; emitted != total || sum.Report == nil {
		t.Fatalf("%s: stream emitted %d of %d subsets (report %v)", name, emitted, total, sum.Report)
	}
	return sum.Report
}

// reportShape renders a report's verdicts and telemetry for failure
// messages (SubsetReport.String shows only the maximal sets).
func reportShape(r *analysis.SubsetReport) string {
	return fmt.Sprintf("robust %v checked=%d pruned=%d cores=%d certified=%d",
		r.Robust, r.Checked, r.Pruned, r.Cores, r.CertifiedCores)
}
