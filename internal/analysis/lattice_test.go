package analysis_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/robust"
	"repro/internal/snapshot"
	"repro/internal/summary"
)

// TestLatticePruningRandomSelectionsMatchOracle is the pruning property
// test: for random subset lattices — random program selections from every
// benchmark, under random settings and methods, on a shared (and therefore
// increasingly core-seeded) session — the pruned enumeration must return
// exactly the per-subset verdicts of the naive oracle, and its
// Checked+Pruned split must cover the whole lattice.
func TestLatticePruningRandomSelectionsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	benches := fixedBenchmarks()
	sessions := make(map[string]*analysis.Session)
	for _, b := range benches {
		sessions[b.Name] = analysis.NewSession(b.Schema)
	}
	for trial := 0; trial < 60; trial++ {
		bench := benches[rng.Intn(len(benches))]
		perm := rng.Perm(len(bench.Programs))
		k := 1 + rng.Intn(len(bench.Programs))
		programs := make([]*btp.Program, k)
		for i := 0; i < k; i++ {
			programs[i] = bench.Programs[perm[i]]
		}
		cfg := analysis.Config{
			Setting: summary.AllSettings[rng.Intn(len(summary.AllSettings))],
			Method:  methods[rng.Intn(len(methods))],
		}
		name := fmt.Sprintf("trial %d: %s k=%d %s/%s", trial, bench.Name, k, cfg.Setting, cfg.Method)

		pruned, err := sessions[bench.Name].RobustSubsets(programs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		oracle := robust.NewChecker(bench.Schema)
		oracle.Setting = cfg.Setting
		oracle.Method = cfg.Method
		want, err := oracle.NaiveRobustSubsets(programs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(pruned.Robust, want.Robust) {
			t.Errorf("%s: robust subsets diverge\npruned: %v\noracle: %v", name, pruned.Robust, want.Robust)
		}
		if !reflect.DeepEqual(pruned.Maximal, want.Maximal) {
			t.Errorf("%s: maximal subsets diverge\npruned: %v\noracle: %v", name, pruned.Maximal, want.Maximal)
		}
		if total := (1 << k) - 1; pruned.Checked+pruned.Pruned != total {
			t.Errorf("%s: Checked %d + Pruned %d != %d subsets", name, pruned.Checked, pruned.Pruned, total)
		}
	}
}

// TestLatticePruningMatchesNaiveOracle pins the pruned enumeration to the
// paper-level ground truth across every fixed benchmark × 4 settings × 2
// methods: report-identical to the naive per-subset oracle (re-validate,
// re-unfold, re-run Algorithm 1 per subset).
func TestLatticePruningMatchesNaiveOracle(t *testing.T) {
	for _, bench := range fixedBenchmarks() {
		sess := analysis.NewSession(bench.Schema)
		for _, setting := range summary.AllSettings {
			for _, method := range methods {
				name := fmt.Sprintf("%s/%s/%s", bench.Name, setting, method)
				t.Run(name, func(t *testing.T) {
					oracle := robust.NewChecker(bench.Schema)
					oracle.Setting = setting
					oracle.Method = method
					want, err := oracle.NaiveRobustSubsets(bench.Programs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sess.RobustSubsets(bench.Programs, analysis.Config{Setting: setting, Method: method})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Robust, want.Robust) || !reflect.DeepEqual(got.Maximal, want.Maximal) {
						t.Errorf("pruned enumeration diverges from naive oracle:\npruned: %v\noracle: %v", got.Robust, want.Robust)
					}
					if got.String() != want.String() {
						t.Errorf("report rendering diverges:\npruned: %s\noracle: %s", got, want)
					}
				})
			}
		}
	}
}

// TestCoreMinimality: every core the session exports must be genuinely
// minimal — the core's programs are jointly non-robust, and removing any
// single program flips the verdict to robust.
func TestCoreMinimality(t *testing.T) {
	for _, bench := range fixedBenchmarks() {
		sess := analysis.NewSession(bench.Schema)
		for _, setting := range summary.AllSettings {
			for _, method := range methods {
				if _, err := sess.RobustSubsets(bench.Programs, analysis.Config{Setting: setting, Method: method}); err != nil {
					t.Fatal(err)
				}
			}
		}
		facts := sess.ExportCores()
		if len(facts) == 0 {
			t.Fatalf("%s: no cores exported after 8 enumerations", bench.Name)
		}
		verify := analysis.NewSession(bench.Schema)
		for _, f := range facts {
			cfg := analysis.Config{Setting: f.Setting, Method: f.Method, UnfoldBound: f.Bound}
			res, err := verify.Check(f.Programs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Robust {
				t.Errorf("%s: exported core %v is robust under %s/%s — not a core at all",
					bench.Name, coreNames(f.Programs), f.Setting, f.Method)
				continue
			}
			for drop := range f.Programs {
				reduced := make([]*btp.Program, 0, len(f.Programs)-1)
				for i, p := range f.Programs {
					if i != drop {
						reduced = append(reduced, p)
					}
				}
				if len(reduced) == 0 {
					continue // singleton core: the empty set is trivially robust
				}
				res, err := verify.Check(reduced, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Robust {
					t.Errorf("%s: core %v under %s/%s not minimal — still non-robust without %s",
						bench.Name, coreNames(f.Programs), f.Setting, f.Method, f.Programs[drop].ShortName())
				}
			}
		}
	}
}

func coreNames(ps []*btp.Program) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ShortName()
	}
	return out
}

// TestWarmSessionPrunesEveryNonRobustSubset: after one enumeration the
// session stores every minimal core and every maximal robust cover, so a
// repeat decides the entire lattice by containment — zero detector runs —
// and still produces the identical report.
func TestWarmSessionPrunesEveryNonRobustSubset(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	first, err := sess.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("warm repeat diverges: %s vs %s", second, first)
	}
	total := (1 << len(bench.Programs)) - 1
	if second.Checked != 0 || second.Pruned != total {
		t.Errorf("warm repeat checked %d / pruned %d, want 0 / %d (cores decide non-robust, covers decide robust)",
			second.Checked, second.Pruned, total)
	}
	st := sess.Stats()
	if st.Cores.Pruned != uint64(first.Pruned+second.Pruned) || st.Cores.Hits+st.Cores.CoverHits != st.Cores.Pruned {
		t.Errorf("session counters inconsistent: %+v", st.Cores)
	}
	if st.Cores.Cores == 0 || st.Cores.Covers == 0 || st.Cores.SizeBytes <= 0 {
		t.Errorf("core/cover stores empty after enumerations: %+v", st.Cores)
	}
}

// TestInvalidateDropsTouchedCores: Invalidate must evict exactly the cores
// (and memoized detectors) involving the program, so a patched workload
// re-derives only those.
func TestInvalidateDropsTouchedCores(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	if _, err := sess.RobustSubsets(bench.Programs, cfg); err != nil {
		t.Fatal(err)
	}
	dc := bench.Program("DepositChecking")
	facts := sess.ExportCores()
	touched := 0
	for _, f := range facts {
		for _, p := range f.Programs {
			if p == dc {
				touched++
				break
			}
		}
	}
	if touched == 0 || touched == len(facts) {
		t.Fatalf("test needs a mix of touched/untouched cores, got %d/%d", touched, len(facts))
	}
	sess.Invalidate(dc)
	after := sess.ExportCores()
	if len(after) != len(facts)-touched {
		t.Errorf("Invalidate kept %d cores, want %d (dropped exactly the %d touching DC)",
			len(after), len(facts)-touched, touched)
	}
	for _, f := range after {
		for _, p := range f.Programs {
			if p == dc {
				t.Errorf("core %v still references the invalidated program", coreNames(f.Programs))
			}
		}
	}
}

// TestImportCoresSeedsPruning: importing exported facts into a fresh
// session reproduces the warm session's pruning without re-discovery.
func TestImportCoresSeedsPruning(t *testing.T) {
	bench := benchmarks.SmallBank()
	warm := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	rep, err := warm.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	facts := warm.ExportCores()

	seeded := analysis.NewSession(bench.Schema)
	if added := seeded.ImportCores(facts); added != len(facts) {
		t.Fatalf("ImportCores added %d of %d facts", added, len(facts))
	}
	// A re-import is a no-op (deduplicated).
	if added := seeded.ImportCores(facts); added != 0 {
		t.Errorf("duplicate ImportCores added %d facts", added)
	}
	got, err := seeded.RobustSubsets(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != rep.String() {
		t.Errorf("seeded report diverges: %s vs %s", got, rep)
	}
	total := (1 << len(bench.Programs)) - 1
	if got.Checked != len(rep.Robust) || got.Pruned != total-len(rep.Robust) {
		t.Errorf("seeded session checked %d / pruned %d, want %d / %d",
			got.Checked, got.Pruned, len(rep.Robust), total-len(rep.Robust))
	}
}

// TestExportCoresOrderIgnoresAllocation: exported facts are ordered by
// their content, never by where the programs were allocated — the same
// workload rebuilt through its snapshot form in reverse order (what a boot
// restore or a PATCH does to program pointers) exports its cores, and so
// writes its snapshot's core groups, in the same order.
func TestExportCoresOrderIgnoresAllocation(t *testing.T) {
	bench := benchmarks.SmallBank()
	rebuilt := make([]*btp.Program, len(bench.Programs))
	for i := len(bench.Programs) - 1; i >= 0; i-- {
		sp, err := snapshot.FromProgram(bench.Programs[i])
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt[i], err = sp.Build(bench.Schema); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]string{{"Am", "Bal"}, {"Bal", "DC", "TS"}, {"WC"}}
	for _, tc := range []struct {
		name     string
		programs []*btp.Program
	}{{"constructed", bench.Programs}, {"rebuilt in reverse", rebuilt}} {
		sess := analysis.NewSession(bench.Schema)
		if _, err := sess.RobustSubsets(tc.programs, analysis.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		var got [][]string
		for _, f := range sess.ExportCores() {
			got = append(got, coreNames(f.Programs))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s programs export cores %v, want %v", tc.name, got, want)
		}
	}
}

// TestSubSelectionWarmAfterFullSet: the store keeps every cover a walk
// learned, not only the largest ones, so a sub-selection walked again
// after a walk of the full set (whose covers contain the sub-selection's
// own) is still decided entirely by containment — zero detector runs.
func TestSubSelectionWarmAfterFullSet(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	sub := bench.Programs[:3]
	first, err := sess.RobustSubsets(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Checked == 0 {
		t.Fatal("cold sub-selection ran no detector — fixture broken")
	}
	if _, err := sess.RobustSubsets(bench.Programs, cfg); err != nil {
		t.Fatal(err)
	}
	again, err := sess.RobustSubsets(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != first.String() {
		t.Errorf("warm sub-selection diverges: %s vs %s", again, first)
	}
	if total := 1<<len(sub) - 1; again.Checked != 0 || again.Pruned != total {
		t.Errorf("sub-selection after the full set checked %d / pruned %d, want 0 / %d", again.Checked, again.Pruned, total)
	}
}
