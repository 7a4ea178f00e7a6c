package analysis_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/relschema"
	"repro/internal/robust"
	"repro/internal/sqlbtp"
	"repro/internal/summary"
)

// fixedBenchmarks returns the three fixed benchmarks of Section 7.
func fixedBenchmarks() []*benchmarks.Benchmark {
	return []*benchmarks.Benchmark{
		benchmarks.SmallBank(), benchmarks.TPCC(), benchmarks.Auction(),
	}
}

// wideBenchmarks are Auction(4)–(6): 8, 10 and 12 programs, whose widest
// lattice levels have 70, 252 and 924 masks, and whose full selections are
// robust under foreign keys (the walk's probe decides them in one run).
func wideBenchmarks() []*benchmarks.Benchmark {
	return []*benchmarks.Benchmark{benchmarks.AuctionN(4), benchmarks.AuctionN(5), benchmarks.AuctionN(6)}
}

// methods lists both cycle conditions.
var methods = []summary.Method{summary.TypeII, summary.TypeI}

// TestEngineEquivalenceRobustSubsets is the engine's ground-truth test:
// for every fixed and wide benchmark under all four settings and both
// methods, the composed-graph enumeration must produce a report
// byte-identical to the naive per-subset oracle (re-validate, re-unfold,
// re-run Algorithm 1 for each of the 2^n − 1 subsets).
func TestEngineEquivalenceRobustSubsets(t *testing.T) {
	for _, bench := range append(fixedBenchmarks(), wideBenchmarks()...) {
		// One shared session per benchmark across all 8 cells, as the
		// experiments suite uses it — cross-setting cache pollution would
		// show up here.
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
					if !reflect.DeepEqual(got.Robust, want.Robust) {
						t.Errorf("robust subsets diverge:\nengine: %v\noracle: %v", got.Robust, want.Robust)
					}
					if !reflect.DeepEqual(got.Maximal, want.Maximal) {
						t.Errorf("maximal subsets diverge:\nengine: %v\noracle: %v", got.Maximal, want.Maximal)
					}
					if got.String() != want.String() {
						t.Errorf("report rendering diverges:\nengine: %s\noracle: %s", got, want)
					}
				})
			}
		}
	}
}

// TestComposeMatchesBuild asserts the composed graph is identical to the
// naive construction — same edge sequence, not just the same verdict.
func TestComposeMatchesBuild(t *testing.T) {
	for _, bench := range fixedBenchmarks() {
		for _, setting := range summary.AllSettings {
			ltps := btp.UnfoldAll2(bench.Programs)
			want := summary.Build(bench.Schema, ltps, setting)
			bs := summary.NewBlockSet(bench.Schema, setting)
			got := summary.Compose(bs, ltps)
			if len(got.Edges) != len(want.Edges) {
				t.Fatalf("%s under %s: %d edges, want %d", bench.Name, setting, len(got.Edges), len(want.Edges))
			}
			for i := range got.Edges {
				if got.Edges[i] != want.Edges[i] {
					t.Fatalf("%s under %s: edge %d = %s, want %s",
						bench.Name, setting, i, got.Edges[i], want.Edges[i])
				}
			}
			if got.String() != want.String() {
				t.Errorf("%s under %s: graph dump diverges", bench.Name, setting)
			}
		}
	}
}

// TestSessionCheckMatchesNaive compares the session's Check against the
// naive single-shot path on full program sets and on the classic non-robust
// SmallBank pairs.
func TestSessionCheckMatchesNaive(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	sets := [][]*btp.Program{bench.Programs}
	for _, names := range [][]string{{"WriteCheck"}, {"Balance", "WriteCheck"}, {"Amalgamate", "DepositChecking", "TransactSavings"}} {
		var ps []*btp.Program
		for _, n := range names {
			ps = append(ps, bench.Program(n))
		}
		sets = append(sets, ps)
	}
	for _, setting := range summary.AllSettings {
		for _, method := range methods {
			for _, ps := range sets {
				cfg := analysis.Config{Setting: setting, Method: method}
				got, err := sess.Check(ps, cfg)
				if err != nil {
					t.Fatal(err)
				}
				c := robust.NewChecker(bench.Schema)
				c.Setting = setting
				c.Method = method
				want := c.CheckLTPs(btp.UnfoldAll2(ps))
				if got.Robust != want.Robust {
					t.Errorf("%s/%s/%d programs: engine robust=%t, naive=%t",
						setting, method, len(ps), got.Robust, want.Robust)
				}
				if got.Graph.String() != want.Graph.String() {
					t.Errorf("%s/%s/%d programs: graph dump diverges", setting, method, len(ps))
				}
				if (got.Witness == nil) != (want.Witness == nil) {
					t.Errorf("%s/%s/%d programs: witness presence diverges", setting, method, len(ps))
				}
			}
		}
	}
}

// TestSessionMemoization asserts that unfoldings are shared across calls
// (pointer-identical LTPs) and that blocks accumulate per setting.
func TestSessionMemoization(t *testing.T) {
	bench := benchmarks.TPCC()
	sess := analysis.NewSession(bench.Schema)
	p := bench.Program("NewOrder")
	l1, err := sess.LTPs(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := sess.LTPs(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) == 0 || len(l1) != len(l2) {
		t.Fatalf("unfold lengths: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("memoized unfolding not pointer-identical")
		}
	}
	l3, err := sess.LTPs(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(l3) <= len(l1) {
		t.Fatalf("bound 3 should yield more unfoldings: %d vs %d", len(l3), len(l1))
	}
	bs := sess.Blocks(summary.SettingAttrDep)
	if bs.Len() != 0 {
		t.Fatalf("fresh block set has %d pairs", bs.Len())
	}
	if _, err := sess.Check(bench.Programs, analysis.Config{Setting: summary.SettingAttrDep}); err != nil {
		t.Fatal(err)
	}
	if got, want := bs.Len(), 13*13; got != want {
		t.Errorf("block pairs after full check = %d, want %d", got, want)
	}
	if sess.Blocks(summary.SettingAttrDep) != bs {
		t.Error("Blocks not memoized per setting")
	}
}

// TestSessionRejectsInvalidProgram checks validation errors surface (and
// are memoized) through the engine.
func TestSessionRejectsInvalidProgram(t *testing.T) {
	bench := benchmarks.Auction()
	sess := analysis.NewSession(bench.Schema)
	bad := btp.LinearProgram("Bad", &btp.Stmt{Name: "q", Type: btp.KeySel, Rel: "Nope", ReadSet: btp.Attrs()})
	for i := 0; i < 2; i++ {
		if _, err := sess.Check([]*btp.Program{bad}, analysis.DefaultConfig()); err == nil {
			t.Fatal("invalid program accepted")
		}
		if _, err := sess.RobustSubsets([]*btp.Program{bad}, analysis.DefaultConfig()); err == nil {
			t.Fatal("invalid program accepted by RobustSubsets")
		}
	}
}

// TestSessionTooManyPrograms documents the enumeration guard.
func TestSessionTooManyPrograms(t *testing.T) {
	bench := benchmarks.AuctionN(11) // 22 programs
	sess := analysis.NewSession(bench.Schema)
	if _, err := sess.RobustSubsets(bench.Programs, analysis.DefaultConfig()); err == nil {
		t.Fatal("expected infeasibility error for 22 programs")
	}
}

// TestSessionConcurrentUse hammers one session from many goroutines across
// settings, methods and program subsets; run under -race this is the
// engine's data-race test.
func TestSessionConcurrentUse(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	want := map[summary.Method]string{}
	for _, method := range methods {
		rep, err := sess.RobustSubsets(bench.Programs, analysis.Config{
			Setting: summary.SettingAttrDepFK, Method: method,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[method] = rep.String()
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			setting := summary.AllSettings[g%len(summary.AllSettings)]
			method := methods[g%len(methods)]
			for i := 0; i < 3; i++ {
				rep, err := sess.RobustSubsets(bench.Programs, analysis.Config{Setting: setting, Method: method})
				if err != nil {
					errc <- err
					return
				}
				if setting == summary.SettingAttrDepFK && rep.String() != want[method] {
					errc <- fmt.Errorf("concurrent report diverged: %s", rep)
					return
				}
				if _, err := sess.Check(bench.Programs, analysis.Config{Setting: setting, Method: method}); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// patchedDepositChecking is a modified DepositChecking in the Appendix A
// dialect: the deposit lands in Savings instead of Checking. Used by the
// invalidation tests as the replacement program of a PATCH.
const patchedDepositChecking = `
PROGRAM DepositChecking(:name, :amount):
  SELECT CustomerId INTO :c FROM Account WHERE Name = :name;  -- q1
  UPDATE Savings SET Balance = Balance + :amount WHERE CustomerId = :c;  -- q2
  -- @fk q2 = fS(q1)
COMMIT;
`

// TestSessionInvalidatePairLevel is the incremental re-analysis acceptance
// test: after a warm full enumeration, invalidating one program must evict
// exactly that program's ordered LTP pairs; re-checking with a replacement
// program must recompute only pairs with the replacement as an endpoint
// (cache-miss delta), leave every untouched pair cached (cache-hit delta),
// and still produce verdicts identical to a fresh naive-oracle run.
func TestSessionInvalidatePairLevel(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()

	// Warm the cache: 5 linear programs, one LTP each → 25 ordered pairs.
	if _, err := sess.RobustSubsets(bench.Programs, cfg); err != nil {
		t.Fatal(err)
	}
	bs := sess.Blocks(cfg.Setting)
	st0 := bs.Stats()
	if st0.Pairs != 25 || st0.Misses != 25 {
		t.Fatalf("warm cache: pairs=%d misses=%d, want 25/25", st0.Pairs, st0.Misses)
	}

	old := bench.Program("DepositChecking")
	removed := sess.Invalidate(old)
	if removed != 9 {
		t.Errorf("Invalidate evicted %d pairs, want 9 (pairs with DC as an endpoint)", removed)
	}
	if got := bs.Len(); got != 16 {
		t.Errorf("pairs after invalidation = %d, want 16 untouched", got)
	}
	if st := sess.Stats(); st.Blocks.Invalidated != 9 {
		t.Errorf("session invalidated counter = %d, want 9", st.Blocks.Invalidated)
	}

	// Re-check with the patched replacement program.
	next, err := sqlbtp.ParseProgram(bench.Schema, patchedDepositChecking)
	if err != nil {
		t.Fatal(err)
	}
	next.Abbrev = old.Abbrev
	patched := make([]*btp.Program, len(bench.Programs))
	copy(patched, bench.Programs)
	for i, p := range patched {
		if p == old {
			patched[i] = next
		}
	}
	st1 := bs.Stats()
	got, err := sess.Check(patched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := bs.Stats()
	if miss := st2.Misses - st1.Misses; miss != 9 {
		t.Errorf("post-patch check recomputed %d pairs, want only the 9 involving the new program", miss)
	}
	if hits := st2.Hits - st1.Hits; hits != 16 {
		t.Errorf("post-patch check took %d cache hits, want all 16 untouched pairs", hits)
	}
	if st2.Pairs != 25 {
		t.Errorf("pairs after re-check = %d, want 25", st2.Pairs)
	}

	// Verdicts must match a fresh naive oracle over the patched set.
	oracle := robust.NewChecker(bench.Schema)
	oracle.Setting = cfg.Setting
	oracle.Method = cfg.Method
	want := oracle.CheckLTPs(btp.UnfoldAll2(patched))
	if got.Robust != want.Robust {
		t.Errorf("patched check: engine robust=%t, oracle=%t", got.Robust, want.Robust)
	}
	if got.Graph.String() != want.Graph.String() {
		t.Error("patched check: graph dump diverges from naive build")
	}
	gotRep, err := sess.RobustSubsets(patched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := oracle.NaiveRobustSubsets(patched)
	if err != nil {
		t.Fatal(err)
	}
	if gotRep.String() != wantRep.String() {
		t.Errorf("patched subsets diverge:\nengine: %s\noracle: %s", gotRep, wantRep)
	}
}

// TestSessionCtxCancellation asserts a cancelled context aborts both entry
// points with the context's error.
func TestSessionCtxCancellation(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.RobustSubsetsCtx(ctx, bench.Programs, analysis.DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("RobustSubsetsCtx err = %v, want context.Canceled", err)
	}
	if _, err := sess.CheckCtx(ctx, bench.Programs, analysis.DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("CheckCtx err = %v, want context.Canceled", err)
	}
	// An uncancelled context changes nothing.
	rep, err := sess.RobustSubsetsCtx(context.Background(), bench.Programs, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.RobustSubsets(bench.Programs, analysis.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != base.String() {
		t.Errorf("ctx variant diverges: %s != %s", rep, base)
	}
}

// TestInvalidateRetiresStalePairs covers the patch-under-load leak: a
// check that re-resolves an invalidated program's pairs (as an in-flight
// snapshot would) must not re-admit them to the cache.
func TestInvalidateRetiresStalePairs(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	if _, err := sess.Check(bench.Programs, cfg); err != nil {
		t.Fatal(err)
	}
	bs := sess.Blocks(cfg.Setting)

	old := bench.Program("DepositChecking")
	oldLTPs, err := sess.LTPs(old, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess.Invalidate(old)
	if got := bs.Len(); got != 16 {
		t.Fatalf("pairs after invalidation = %d, want 16", got)
	}
	// A straggler holding the old snapshot recomputes the old program's
	// pairs on demand but the cache must stay at 16 entries.
	straggler := append([]*btp.LTP{}, oldLTPs...)
	for _, p := range bench.Programs {
		if p != old {
			ltps, err := sess.LTPs(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			straggler = append(straggler, ltps...)
		}
	}
	got := summary.Compose(bs, straggler)
	if want := summary.Build(bench.Schema, straggler, cfg.Setting); got.String() != want.String() {
		t.Error("straggler compose diverges from Build")
	}
	if got := bs.Len(); got != 16 {
		t.Errorf("retired pair re-cached: %d pairs, want 16", got)
	}
}

// TestRetiredProgramNotRememoized: resolving an invalidated program (as an
// in-flight straggler would) must work but leave every cache untouched.
func TestRetiredProgramNotRememoized(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig()
	if _, err := sess.Check(bench.Programs, cfg); err != nil {
		t.Fatal(err)
	}
	old := bench.Program("DepositChecking")
	sess.Invalidate(old)
	st0 := sess.Stats()

	// A straggler snapshot still holding the old program re-checks it.
	res, err := sess.Check([]*btp.Program{old, bench.Program("Balance")}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := robust.NewChecker(bench.Schema).CheckLTPs(
		btp.UnfoldAll2([]*btp.Program{old, bench.Program("Balance")}))
	if res.Robust != want.Robust {
		t.Errorf("straggler verdict robust=%t, oracle=%t", res.Robust, want.Robust)
	}
	st1 := sess.Stats()
	if st1.Programs != st0.Programs || st1.Unfoldings != st0.Unfoldings {
		t.Errorf("straggler re-memoized the retired program: %+v -> %+v", st0, st1)
	}
	if st1.Blocks.Pairs != st0.Blocks.Pairs {
		t.Errorf("straggler re-admitted retired pairs: %d -> %d", st0.Blocks.Pairs, st1.Blocks.Pairs)
	}
}

// The statements and program of SmallBank's DepositChecking, declared as
// package-level composite literals: the compiler allocates them
// statically, not on the heap, as a library caller may declare a program.
var (
	staticQ9 = &btp.Stmt{Name: "q9", Type: btp.KeySel, Rel: "Account",
		ReadSet: btp.OptAttrs{Defined: true, Set: relschema.AttrSet{"CustomerId": {}}}}
	staticQ10 = &btp.Stmt{Name: "q10", Type: btp.KeyUpd, Rel: "Checking",
		ReadSet:  btp.OptAttrs{Defined: true, Set: relschema.AttrSet{"Balance": {}}},
		WriteSet: btp.OptAttrs{Defined: true, Set: relschema.AttrSet{"Balance": {}}}}
	staticDepositChecking = &btp.Program{
		Name: "DepositChecking", Abbrev: "DC",
		Body: &btp.Seq{Items: []btp.Node{&btp.StmtNode{Stmt: staticQ9}, &btp.StmtNode{Stmt: staticQ10}}},
		FKs:  []btp.FKConstraint{{FK: "fC", Src: staticQ9, Dst: staticQ10}},
	}
)

// TestInvalidateStaticProgram: a program that is not a heap object can be
// invalidated, and afterwards checked, walked and streamed — as an
// in-flight straggler would — with the oracle's verdicts and without
// re-memoizing it.
func TestInvalidateStaticProgram(t *testing.T) {
	bench := benchmarks.SmallBank()
	programs := slices.Clone(bench.Programs)
	programs[slices.Index(programs, bench.Program("DepositChecking"))] = staticDepositChecking
	cfg := analysis.DefaultConfig()
	oracle := robust.NewChecker(bench.Schema)
	oracle.Setting, oracle.Method = cfg.Setting, cfg.Method
	want, err := oracle.NaiveRobustSubsets(programs)
	if err != nil {
		t.Fatal(err)
	}
	sess := analysis.NewSession(bench.Schema)
	analyse := func(when string) {
		res, err := sess.Check(programs, cfg)
		if err != nil {
			t.Fatalf("%s: check: %v", when, err)
		}
		if w := oracle.CheckLTPs(btp.UnfoldAll2(programs)); res.Robust != w.Robust {
			t.Errorf("%s: check robust=%t, oracle=%t", when, res.Robust, w.Robust)
		}
		rep, err := sess.RobustSubsets(programs, cfg)
		if err != nil {
			t.Fatalf("%s: walk: %v", when, err)
		}
		if rep.String() != want.String() {
			t.Errorf("%s: walk report diverges:\nengine: %s\noracle: %s", when, rep, want)
		}
		sum, err := sess.RobustSubsetsStream(context.Background(), programs, cfg, analysis.StreamOptions{},
			func(analysis.StreamVerdict) error { return nil })
		if err != nil {
			t.Fatalf("%s: stream: %v", when, err)
		}
		if sum.Report.String() != want.String() {
			t.Errorf("%s: stream report diverges:\nengine: %s\noracle: %s", when, sum.Report, want)
		}
	}
	analyse("before Invalidate")
	if removed := sess.Invalidate(staticDepositChecking); removed == 0 {
		t.Error("Invalidate evicted no pairs of the static program")
	}
	st0 := sess.Stats()
	analyse("after Invalidate")
	if st1 := sess.Stats(); st1.Programs != st0.Programs || st1.Unfoldings != st0.Unfoldings {
		t.Errorf("the retired static program was memoized again: %+v -> %+v", st0, st1)
	}
}

// TestIntraCheckParallelismEquivalence: across every fixed benchmark, all
// four settings and both methods, a cold Check must match the naive
// oracle — same verdict, identical graph dump, matching witness presence.
func TestIntraCheckParallelismEquivalence(t *testing.T) {
	for _, bench := range fixedBenchmarks() {
		for _, setting := range summary.AllSettings {
			for _, method := range methods {
				name := fmt.Sprintf("%s/%s/%s", bench.Name, setting, method)
				t.Run(name, func(t *testing.T) {
					oracle := robust.NewChecker(bench.Schema)
					oracle.Setting = setting
					oracle.Method = method
					want := oracle.CheckLTPs(btp.UnfoldAll2(bench.Programs))
					// A fresh session, so the check exercises cold
					// construction, not cache reads.
					sess := analysis.NewSession(bench.Schema)
					got, err := sess.Check(bench.Programs, analysis.Config{Setting: setting, Method: method})
					if err != nil {
						t.Fatal(err)
					}
					if got.Robust != want.Robust {
						t.Errorf("robust=%t, oracle=%t", got.Robust, want.Robust)
					}
					if got.Graph.String() != want.Graph.String() {
						t.Error("graph dump diverges from oracle")
					}
					if (got.Witness == nil) != (want.Witness == nil) {
						t.Error("witness presence diverges")
					}
				})
			}
		}
	}
}

// TestIntraCheckLargeUniverseParallelism: on a large universe (Auction(40),
// 120 nodes) a cold check must be robust and produce the graph Build
// constructs.
func TestIntraCheckLargeUniverseParallelism(t *testing.T) {
	bench := benchmarks.AuctionN(40)
	sess := analysis.NewSession(bench.Schema)
	cfg := analysis.DefaultConfig() // attr+fk: the setting under which Auction(n) is robust
	res, err := sess.Check(bench.Programs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Robust {
		t.Fatal("Auction(40) not robust")
	}
	if want := summary.Build(bench.Schema, btp.UnfoldAll2(bench.Programs), cfg.Setting); res.Graph.String() != want.String() {
		t.Error("Auction(40) graph diverges from Build")
	}
}

// TestSessionSizeBytes: the session's memory estimate grows as checks warm
// the unfolding and block caches and shrinks when a program's state is
// invalidated — the per-workload term of the server's memory accounting.
func TestSessionSizeBytes(t *testing.T) {
	bench := benchmarks.SmallBank()
	sess := analysis.NewSession(bench.Schema)
	cold := sess.SizeBytes()
	if cold <= 0 {
		t.Fatalf("cold SizeBytes = %d, want positive overhead", cold)
	}
	if _, err := sess.Check(bench.Programs, analysis.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	warm := sess.SizeBytes()
	if warm <= cold {
		t.Fatalf("warm SizeBytes = %d, not above cold %d", warm, cold)
	}
	sess.Invalidate(bench.Programs[0])
	if shrunk := sess.SizeBytes(); shrunk >= warm {
		t.Errorf("SizeBytes after Invalidate = %d, want below %d", shrunk, warm)
	}
}

// TestSessionSizeBytesAllocs: the estimate counts each memoized LTP's
// statements without copying them, so its allocations do not grow with the
// number of LTPs — a warm TPC-C session costs what a warm SmallBank one
// does. Under -max-bytes the server estimates every resident workload
// after requests.
func TestSessionSizeBytesAllocs(t *testing.T) {
	allocs := func(bench *benchmarks.Benchmark) (float64, int) {
		sess := analysis.NewSession(bench.Schema)
		res, err := sess.Check(bench.Programs, analysis.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { sess.SizeBytes() }), len(res.LTPs)
	}
	small, smallLTPs := allocs(benchmarks.SmallBank())
	tpcc, tpccLTPs := allocs(benchmarks.TPCC())
	if small != tpcc {
		t.Errorf("SizeBytes allocates %.0f times over %d LTPs (SmallBank), %.0f over %d (TPC-C): want equal",
			small, smallLTPs, tpcc, tpccLTPs)
	}
}
