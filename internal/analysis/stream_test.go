package analysis_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/summary"
)

// collectStream runs a full streaming enumeration on a fresh session and
// returns the emitted verdicts in order plus the summary.
func collectStream(t *testing.T, bench *benchmarks.Benchmark, cfg analysis.Config, opts analysis.StreamOptions) ([]analysis.StreamVerdict, *analysis.StreamSummary) {
	t.Helper()
	var got []analysis.StreamVerdict
	sum, err := analysis.NewSession(bench.Schema).RobustSubsetsStream(
		context.Background(), bench.Programs, cfg, opts,
		func(v analysis.StreamVerdict) error {
			got = append(got, v)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return got, sum
}

// TestStreamMatchesMonolithic is the streaming ground-truth test: for every
// fixed benchmark × all four settings × sequential and parallel levels, a
// full stream must (a) emit exactly the 2^n − 1 subsets, (b) emit verdicts
// that agree subset-by-subset with the monolithic report, (c) assemble a
// summary report identical to RobustSubsetsCtx including the Checked/Pruned
// split, and (d) emit level by level in ascending mask order (bit i for
// the i-th program) at every worker count — the order the collecting walk
// visits, not a race.
func TestStreamMatchesMonolithic(t *testing.T) {
	for _, bench := range fixedBenchmarks() {
		for _, setting := range summary.AllSettings {
			t.Run(fmt.Sprintf("%s/%s", bench.Name, setting), func(t *testing.T) {
				mono, err := analysis.NewSession(bench.Schema).RobustSubsets(
					bench.Programs, analysis.Config{Setting: setting, Parallelism: 4})
				if err != nil {
					t.Fatal(err)
				}
				robustByKey := make(map[string]bool)
				for _, s := range mono.Robust {
					robustByKey[s.String()] = true
				}

				for _, par := range []int{1, 8} {
					cfg := analysis.Config{Setting: setting, Parallelism: par}
					got, sum := collectStream(t, bench, cfg, analysis.StreamOptions{})
					total := (1 << len(bench.Programs)) - 1
					if len(got) != total || sum.Emitted != total {
						t.Fatalf("par=%d: emitted %d/%d verdicts, want %d", par, len(got), sum.Emitted, total)
					}
					if sum.Terminated || sum.Reason != "" {
						t.Errorf("par=%d: full stream reported termination: %+v", par, sum)
					}
					for _, v := range got {
						key := analysis.Subset(v.Programs).String()
						if v.Robust != robustByKey[key] {
							t.Errorf("par=%d: %s robust=%t, monolithic says %t", par, key, v.Robust, robustByKey[key])
						}
						if len(v.Programs) != v.Size {
							t.Errorf("par=%d: %s size %d", par, key, v.Size)
						}
					}
					if sum.Report == nil || sum.Report.String() != mono.String() {
						t.Errorf("par=%d: stream report diverges\nstream: %v\nmono:   %v", par, sum.Report, mono)
					}
					if sum.Report.Checked != mono.Checked || sum.Report.Pruned != mono.Pruned {
						t.Errorf("par=%d: checked/pruned %d/%d, monolithic %d/%d",
							par, sum.Report.Checked, sum.Report.Pruned, mono.Checked, mono.Pruned)
					}
					checkAscending(t, fmt.Sprintf("par=%d", par), bench.Programs, got)
				}
			})
		}
	}
}

// checkAscending asserts the stream's emission order: ascending sizes and,
// within a level, ascending program masks (bit i for programs[i]).
func checkAscending(t *testing.T, name string, programs []*btp.Program, got []analysis.StreamVerdict) {
	t.Helper()
	index := make(map[string]int, len(programs))
	for i, p := range programs {
		index[p.ShortName()] = i
	}
	prevSize, prevMask := 0, 0
	for _, v := range got {
		mask := 0
		for _, name := range v.Programs {
			mask |= 1 << index[name]
		}
		if v.Size < prevSize || v.Size == prevSize && mask <= prevMask {
			t.Errorf("%s: %v (mask %#x, size %d) emitted after mask %#x of size %d, want ascending sizes and, within a level, ascending masks",
				name, v.Programs, mask, v.Size, prevMask, prevSize)
		}
		prevSize, prevMask = v.Size, mask
	}
}

// TestStreamFirstNonRobust: the mode must stop exactly at the first
// non-robust verdict of the full stream's deterministic emission order —
// the emitted sequence is a strict prefix of the full stream's, everything
// before the last verdict is robust, and by level order the terminal subset
// is a smallest non-robust one.
func TestStreamFirstNonRobust(t *testing.T) {
	bench := benchmarks.SmallBank()
	cfg := analysis.Config{Parallelism: 1}
	full, _ := collectStream(t, bench, cfg, analysis.StreamOptions{})
	firstNR := -1
	for i, v := range full {
		if !v.Robust {
			firstNR = i
			break
		}
	}
	if firstNR < 0 {
		t.Fatal("SmallBank's full lattice has no non-robust subset — the fixture is broken")
	}

	for _, par := range []int{1, 8} {
		cfg := analysis.Config{Parallelism: par}
		got, sum := collectStream(t, bench, cfg, analysis.StreamOptions{Mode: analysis.StreamFirstNonRobust})
		if !sum.Terminated || sum.Reason != analysis.ReasonFirstNonRobust {
			t.Fatalf("par=%d: terminated=%t reason=%q", par, sum.Terminated, sum.Reason)
		}
		if !reflect.DeepEqual(got, full[:firstNR+1]) {
			t.Errorf("par=%d: emitted sequence is not the full stream's prefix up to the first non-robust verdict:\ngot:  %v\nwant: %v",
				par, got, full[:firstNR+1])
		}
		last := got[len(got)-1]
		for _, v := range full {
			if !v.Robust && v.Size < last.Size {
				t.Errorf("par=%d: terminal subset %v (size %d) is not a smallest non-robust one (%v is smaller)",
					par, last.Programs, last.Size, v.Programs)
			}
		}
		if sum.Report != nil {
			t.Errorf("par=%d: early-terminated stream carries a report", par)
		}
	}

	// A selection with no non-robust subset streams to completion: any
	// maximal robust subset of the full report works as the selection.
	mono, err := analysis.NewSession(bench.Schema).RobustSubsets(bench.Programs, analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	robustSel := mono.Maximal[0]
	programs := selectPrograms(t, bench, robustSel)
	var emitted int
	sum, err := analysis.NewSession(bench.Schema).RobustSubsetsStream(
		context.Background(), programs, analysis.Config{},
		analysis.StreamOptions{Mode: analysis.StreamFirstNonRobust},
		func(v analysis.StreamVerdict) error {
			if !v.Robust {
				t.Errorf("robust selection emitted non-robust %v", v.Programs)
			}
			emitted++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Terminated || emitted != (1<<len(programs))-1 {
		t.Errorf("robust selection: terminated=%t emitted=%d want %d", sum.Terminated, emitted, (1<<len(programs))-1)
	}
}

// TestStreamMaximalRobustAndTopK: both modes emit only robust verdicts and
// still recover the exact maximal-robust answer; top_k additionally ranks
// the K largest robust subsets. The oracle is the monolithic report.
func TestStreamMaximalRobustAndTopK(t *testing.T) {
	for _, bench := range fixedBenchmarks() {
		mono, err := analysis.NewSession(bench.Schema).RobustSubsets(bench.Programs, analysis.Config{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 8} {
			cfg := analysis.Config{Parallelism: par}
			got, sum := collectStream(t, bench, cfg, analysis.StreamOptions{Mode: analysis.StreamMaximalRobust})
			for _, v := range got {
				if !v.Robust {
					t.Errorf("%s par=%d: maximal-robust mode emitted non-robust %v", bench.Name, par, v.Programs)
				}
			}
			if len(got) != len(mono.Robust) {
				t.Errorf("%s par=%d: emitted %d robust subsets, monolithic has %d", bench.Name, par, len(got), len(mono.Robust))
			}
			if sum.Report == nil || !reflect.DeepEqual(sum.Report.Maximal, mono.Maximal) {
				t.Errorf("%s par=%d: maximal sets diverge:\nstream: %v\nmono:   %v", bench.Name, par, sum.Report, mono.Maximal)
			}

			const k = 3
			_, sum = collectStream(t, bench, cfg, analysis.StreamOptions{Mode: analysis.StreamTopK, K: k})
			want := topKOracle(mono.Robust, k)
			if !reflect.DeepEqual(sum.TopK, want) {
				t.Errorf("%s par=%d: top-%d diverges:\nstream: %v\nwant:   %v", bench.Name, par, k, sum.TopK, want)
			}
		}
	}

	// top_k without a positive K is a usage error.
	bench := benchmarks.SmallBank()
	_, err := analysis.NewSession(bench.Schema).RobustSubsetsStream(
		context.Background(), bench.Programs, analysis.Config{},
		analysis.StreamOptions{Mode: analysis.StreamTopK},
		func(analysis.StreamVerdict) error { return nil })
	if err == nil {
		t.Error("top_k with K=0 accepted")
	}
}

// topKOracle reimplements the ranking independently: size-descending, then
// lexicographic ascending, truncated to k.
func topKOracle(robust []analysis.Subset, k int) []analysis.Subset {
	out := append([]analysis.Subset(nil), robust...)
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i].String() < out[j].String()
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestStreamMaxSubsets: the budget caps emission in any mode and the
// emitted sequence stays the deterministic prefix.
func TestStreamMaxSubsets(t *testing.T) {
	bench := benchmarks.SmallBank()
	cfg := analysis.Config{Parallelism: 1}
	full, _ := collectStream(t, bench, cfg, analysis.StreamOptions{})
	const budget = 5
	got, sum := collectStream(t, bench, cfg, analysis.StreamOptions{MaxSubsets: budget})
	if !sum.Terminated || sum.Reason != analysis.ReasonMaxSubsets || sum.Emitted != budget {
		t.Fatalf("terminated=%t reason=%q emitted=%d", sum.Terminated, sum.Reason, sum.Emitted)
	}
	if !reflect.DeepEqual(got, full[:budget]) {
		t.Errorf("budgeted emission is not the full stream's prefix:\ngot:  %v\nwant: %v", got, full[:budget])
	}
}

// TestStreamEmitErrorAborts: a callback error (the server's client
// disconnect) must abort the traversal, surface as the return error, and
// leave the enumeration visibly unfinished — the session's detector-miss
// counter stays strictly below the full lattice's.
func TestStreamEmitErrorAborts(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	boom := errors.New("client went away")
	emitted := 0
	_, err := sess.RobustSubsetsStream(context.Background(), bench.Programs,
		analysis.Config{Parallelism: 1}, analysis.StreamOptions{},
		func(analysis.StreamVerdict) error {
			emitted++
			if emitted == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	total := (1 << len(bench.Programs)) - 1
	if misses := sess.Stats().Cores.Misses; misses >= uint64(total) {
		t.Errorf("aborted stream still ran the detector %d times (full lattice is %d)", misses, total)
	}
}

// TestStreamContextCancel: cancelling the request context mid-stream stops
// the walk with the context's error; no further verdicts are emitted after
// the cancel and the detector does not finish the lattice.
func TestStreamContextCancel(t *testing.T) {
	bench := benchmarks.SmallBank()
	for _, par := range []int{1, 8} {
		sess := analysis.NewSession(bench.Schema)
		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		_, err := sess.RobustSubsetsStream(ctx, bench.Programs,
			analysis.Config{Parallelism: par}, analysis.StreamOptions{},
			func(analysis.StreamVerdict) error {
				emitted++
				if emitted == 3 {
					cancel()
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
		total := (1 << len(bench.Programs)) - 1
		if emitted >= total {
			t.Errorf("par=%d: cancelled stream emitted the whole lattice (%d)", par, emitted)
		}
		if misses := sess.Stats().Cores.Misses; misses >= uint64(total) {
			t.Errorf("par=%d: cancelled stream ran the detector %d times", par, misses)
		}
	}
}

// TestStreamWarmsSession: cores minted by an early-terminated stream must
// reach the session fact store — a subsequent monolithic enumeration
// prunes with them (the one-directional cache interplay the server relies
// on).
func TestStreamWarmsSession(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	_, sum := func() ([]analysis.StreamVerdict, *analysis.StreamSummary) {
		var got []analysis.StreamVerdict
		sum, err := sess.RobustSubsetsStream(context.Background(), bench.Programs,
			analysis.Config{}, analysis.StreamOptions{Mode: analysis.StreamFirstNonRobust},
			func(v analysis.StreamVerdict) error { got = append(got, v); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return got, sum
	}()
	if !sum.Terminated || sum.Cores == 0 {
		t.Fatalf("first_non_robust did not mint a core: %+v", sum)
	}
	if len(sess.ExportCores()) == 0 {
		t.Fatal("terminated stream merged no cores into the session store")
	}
	rep, err := sess.RobustSubsets(bench.Programs, analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned == 0 {
		t.Error("monolithic run after a terminated stream pruned nothing")
	}
}

// selectPrograms maps a subset of short names back to the benchmark's
// program values.
func selectPrograms(t *testing.T, bench *benchmarks.Benchmark, names analysis.Subset) []*btp.Program {
	t.Helper()
	var out []*btp.Program
	for _, p := range bench.Programs {
		for _, n := range names {
			if p.ShortName() == n {
				out = append(out, p)
			}
		}
	}
	if len(out) != len(names) {
		t.Fatalf("selection %v resolved to %d programs", names, len(out))
	}
	return out
}
