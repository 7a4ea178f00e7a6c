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
// fixed and wide benchmark × all four settings, a full stream must (a) emit
// exactly the 2^n − 1 subsets, (b) emit verdicts that agree
// subset-by-subset with the monolithic report, (c) assemble a summary
// report identical to RobustSubsetsCtx including the Checked/Pruned split,
// and (d) emit level by level in ascending mask order (bit i for the i-th
// program) — the order the collecting walk visits.
func TestStreamMatchesMonolithic(t *testing.T) {
	for _, bench := range append(fixedBenchmarks(), wideBenchmarks()...) {
		for _, setting := range summary.AllSettings {
			t.Run(fmt.Sprintf("%s/%s", bench.Name, setting), func(t *testing.T) {
				cfg := analysis.Config{Setting: setting}
				mono, err := analysis.NewSession(bench.Schema).RobustSubsets(bench.Programs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				robustByKey := make(map[string]bool)
				for _, s := range mono.Robust {
					robustByKey[s.String()] = true
				}

				got, sum := collectStream(t, bench, cfg, analysis.StreamOptions{})
				total := (1 << len(bench.Programs)) - 1
				if len(got) != total || sum.Emitted != total {
					t.Fatalf("emitted %d/%d verdicts, want %d", len(got), sum.Emitted, total)
				}
				if sum.Terminated || sum.Reason != "" {
					t.Errorf("full stream reported termination: %+v", sum)
				}
				for _, v := range got {
					key := analysis.Subset(v.Programs).String()
					if v.Robust != robustByKey[key] {
						t.Errorf("%s robust=%t, monolithic says %t", key, v.Robust, robustByKey[key])
					}
					if len(v.Programs) != v.Size {
						t.Errorf("%s size %d", key, v.Size)
					}
				}
				if sum.Report == nil || sum.Report.String() != mono.String() {
					t.Errorf("stream report diverges\nstream: %v\nmono:   %v", sum.Report, mono)
				}
				if sum.Report.Checked != mono.Checked || sum.Report.Pruned != mono.Pruned {
					t.Errorf("checked/pruned %d/%d, monolithic %d/%d",
						sum.Report.Checked, sum.Report.Pruned, mono.Checked, mono.Pruned)
				}
				checkAscending(t, bench.Name, bench.Programs, got)
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
// is a smallest non-robust one. A selection with no non-robust subset (the
// wide benchmarks under foreign keys) streams to completion in the full
// stream's order.
func TestStreamFirstNonRobust(t *testing.T) {
	type streamCase struct {
		bench *benchmarks.Benchmark
		cfg   analysis.Config
	}
	cases := []streamCase{{benchmarks.SmallBank(), analysis.Config{}}}
	for _, bench := range wideBenchmarks() {
		cases = append(cases, streamCase{bench, analysis.DefaultConfig()})
	}
	for _, c := range cases {
		name := c.bench.Name
		full, _ := collectStream(t, c.bench, c.cfg, analysis.StreamOptions{})
		want, stops := full, false
		for i, v := range full {
			if !v.Robust {
				want, stops = full[:i+1], true
				break
			}
		}
		got, sum := collectStream(t, c.bench, c.cfg, analysis.StreamOptions{Mode: analysis.StreamFirstNonRobust})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: emitted sequence is not the full stream's prefix up to the first non-robust verdict:\ngot:  %v\nwant: %v",
				name, got, want)
			continue
		}
		if !stops {
			if sum.Terminated || sum.Report == nil {
				t.Errorf("%s: robust selection terminated=%t report=%v, want a complete stream", name, sum.Terminated, sum.Report)
			}
			continue
		}
		if !sum.Terminated || sum.Reason != analysis.ReasonFirstNonRobust {
			t.Fatalf("%s: terminated=%t reason=%q", name, sum.Terminated, sum.Reason)
		}
		last := got[len(got)-1]
		for _, v := range full {
			if !v.Robust && v.Size < last.Size {
				t.Errorf("%s: terminal subset %v (size %d) is not a smallest non-robust one (%v is smaller)",
					name, last.Programs, last.Size, v.Programs)
			}
		}
		if sum.Report != nil {
			t.Errorf("%s: early-terminated stream carries a report", name)
		}
	}
}

// TestStreamMaximalRobustAndTopK: both modes emit only robust verdicts, in
// the full stream's order, and still recover the exact maximal-robust
// answer; top_k additionally ranks the K largest robust subsets. The
// oracle is the monolithic report.
func TestStreamMaximalRobustAndTopK(t *testing.T) {
	for _, bench := range append(fixedBenchmarks(), wideBenchmarks()...) {
		cfg := analysis.Config{}
		mono, err := analysis.NewSession(bench.Schema).RobustSubsets(bench.Programs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, _ := collectStream(t, bench, cfg, analysis.StreamOptions{})
		var robustFull []analysis.StreamVerdict
		for _, v := range full {
			if v.Robust {
				robustFull = append(robustFull, v)
			}
		}
		got, sum := collectStream(t, bench, cfg, analysis.StreamOptions{Mode: analysis.StreamMaximalRobust})
		if !reflect.DeepEqual(got, robustFull) {
			t.Errorf("%s: maximal-robust mode emitted %d verdicts, not the full stream's %d robust ones in order",
				bench.Name, len(got), len(robustFull))
		}
		if len(got) != len(mono.Robust) {
			t.Errorf("%s: emitted %d robust subsets, monolithic has %d", bench.Name, len(got), len(mono.Robust))
		}
		if sum.Report == nil || !reflect.DeepEqual(sum.Report.Maximal, mono.Maximal) {
			t.Errorf("%s: maximal sets diverge:\nstream: %v\nmono:   %v", bench.Name, sum.Report, mono.Maximal)
		}

		const k = 3
		_, sum = collectStream(t, bench, cfg, analysis.StreamOptions{Mode: analysis.StreamTopK, K: k})
		want := topKOracle(mono.Robust, k)
		if !reflect.DeepEqual(sum.TopK, want) {
			t.Errorf("%s: top-%d diverges:\nstream: %v\nwant:   %v", bench.Name, k, sum.TopK, want)
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

// TestStreamMaxSubsets: the budget caps emission in any mode, the emitted
// sequence stays the deterministic prefix, and the summary counts exactly
// the emitted masks as checked or pruned — also on Auction(4) under
// attr+FK, whose robust full selection the walk's probe decides before
// level 1.
func TestStreamMaxSubsets(t *testing.T) {
	const budget = 5
	for _, c := range []struct {
		bench *benchmarks.Benchmark
		cfg   analysis.Config
	}{
		{benchmarks.SmallBank(), analysis.Config{}},
		{benchmarks.AuctionN(4), analysis.DefaultConfig()},
	} {
		full, _ := collectStream(t, c.bench, c.cfg, analysis.StreamOptions{})
		got, sum := collectStream(t, c.bench, c.cfg, analysis.StreamOptions{MaxSubsets: budget})
		if !sum.Terminated || sum.Reason != analysis.ReasonMaxSubsets || sum.Emitted != budget {
			t.Fatalf("%s: terminated=%t reason=%q emitted=%d", c.bench.Name, sum.Terminated, sum.Reason, sum.Emitted)
		}
		if !reflect.DeepEqual(got, full[:budget]) {
			t.Errorf("%s: budgeted emission is not the full stream's prefix:\ngot:  %v\nwant: %v", c.bench.Name, got, full[:budget])
		}
		if sum.Checked+sum.Pruned != sum.Emitted {
			t.Errorf("%s: checked %d + pruned %d != emitted %d", c.bench.Name, sum.Checked, sum.Pruned, sum.Emitted)
		}
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
		analysis.Config{}, analysis.StreamOptions{},
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
// the walk with the context's error; the verdicts emitted before the cancel
// are the full stream's prefix, none follows it, and the detector does not
// finish the lattice. The wide benchmarks cancel halfway through the
// lattice.
func TestStreamContextCancel(t *testing.T) {
	for _, bench := range append([]*benchmarks.Benchmark{benchmarks.SmallBank()}, wideBenchmarks()...) {
		name := bench.Name
		total := (1 << len(bench.Programs)) - 1
		cancelAt := 3
		if len(bench.Programs) >= 8 {
			cancelAt = total / 2
		}
		full, _ := collectStream(t, bench, analysis.Config{}, analysis.StreamOptions{})
		sess := analysis.NewSession(bench.Schema)
		ctx, cancel := context.WithCancel(context.Background())
		var got []analysis.StreamVerdict
		_, err := sess.RobustSubsetsStream(ctx, bench.Programs,
			analysis.Config{}, analysis.StreamOptions{},
			func(v analysis.StreamVerdict) error {
				got = append(got, v)
				if len(got) == cancelAt {
					cancel()
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if len(got) != cancelAt || !reflect.DeepEqual(got, full[:cancelAt]) {
			t.Errorf("%s: emitted %d verdicts, want the full stream's first %d", name, len(got), cancelAt)
		}
		if misses := sess.Stats().Cores.Misses; misses >= uint64(total) {
			t.Errorf("%s: cancelled stream ran the detector %d times", name, misses)
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
