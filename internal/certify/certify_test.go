package certify

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/summary"
)

func programsOf(t *testing.T, b *benchmarks.Benchmark, names ...string) []*btp.Program {
	t.Helper()
	var out []*btp.Program
	for _, n := range names {
		p := b.Program(n)
		if p == nil {
			t.Fatalf("no program %q", n)
		}
		out = append(out, p)
	}
	return out
}

// TestCertifySmallBankBalAm certifies the canonical anomaly of the paper:
// {Balance, Amalgamate} is non-robust under attr+FK and realizes into a
// replayed non-serializable execution. The verdict must feed the certified
// bit back into the session exactly once.
func TestCertifySmallBankBalAm(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	cfg := analysis.DefaultConfig()
	ps := programsOf(t, b, "Balance", "Amalgamate")

	res, err := Subset(context.Background(), sess, cfg, ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Certified {
		t.Fatalf("status = %s (reason %q), want certified", res.Status, res.Reason)
	}
	if res.Certificate == nil {
		t.Fatal("certified result without a certificate")
	}
	if err := res.Certificate.Verify(b.Schema); err != nil {
		t.Fatalf("certificate does not verify: %v", err)
	}
	if len(res.Certificate.Cycle.Deps) == 0 {
		t.Fatal("certificate cycle is empty")
	}
	if !res.NewlyCertified {
		t.Fatal("first certification did not mark the core certified")
	}
	if got := sess.Stats().Cores.Certified; got != 1 {
		t.Fatalf("session reports %d certified cores, want 1", got)
	}

	// Re-certifying the same subset finds the bit already set.
	again, err := Subset(context.Background(), sess, cfg, ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != Certified || again.NewlyCertified {
		t.Fatalf("re-certification: status %s, newly %v — want certified, false",
			again.Status, again.NewlyCertified)
	}
}

// TestCertifyRobustSubset: a robust subset short-circuits before any
// realization work.
func TestCertifyRobustSubset(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	res, err := Subset(context.Background(), sess, analysis.DefaultConfig(),
		programsOf(t, b, "Balance"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Robust {
		t.Fatalf("status = %s, want robust", res.Status)
	}
	if res.Certificate != nil || res.Candidates != 0 {
		t.Fatal("robust result must carry no realization state")
	}
}

// TestCertifyBudgetReason: a one-schedule budget cannot find anything and
// must report the deterministic budget reason.
func TestCertifyBudgetReason(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	res, err := Subset(context.Background(), sess, analysis.DefaultConfig(),
		programsOf(t, b, "Balance", "Amalgamate"), Options{MaxSchedules: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unrealized {
		t.Fatalf("status = %s, want unrealized under a 1-schedule budget", res.Status)
	}
	if !strings.HasPrefix(res.Reason, "budget") {
		t.Fatalf("reason %q does not carry the budget prefix", res.Reason)
	}
}

// TestCertifyAllBenchmarksAllSettings is the pipeline's acceptance sweep:
// for SmallBank, Auction and TPC-C under each of the four analysis
// settings, every statically non-robust subset must either produce a
// verifying certificate or a deterministic Unrealized reason — never an
// error. Large subsets overrun the per-candidate budget and land on the
// documented "budget" outcome, which is exactly what the sweep verifies.
func TestCertifyAllBenchmarksAllSettings(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance sweep skipped in -short mode")
	}
	const maxSchedules = 10_000
	for _, bench := range []*benchmarks.Benchmark{
		benchmarks.SmallBank(), benchmarks.Auction(), benchmarks.TPCC(),
	} {
		sess := analysis.NewSession(bench.Schema)
		for _, setting := range summary.AllSettings {
			cfg := analysis.Config{Setting: setting, Method: summary.TypeII}
			n := len(bench.Programs)
			for mask := 1; mask < 1<<n; mask++ {
				var subset []*btp.Program
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						subset = append(subset, bench.Programs[i])
					}
				}
				name := fmt.Sprintf("%s/%s/mask%d", bench.Name, setting, mask)
				res, err := Subset(context.Background(), sess, cfg, subset, Options{MaxSchedules: maxSchedules})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch res.Status {
				case Robust:
				case Certified:
					if err := res.Certificate.Verify(bench.Schema); err != nil {
						t.Fatalf("%s: certificate does not verify: %v", name, err)
					}
				case Unrealized:
					if !strings.HasPrefix(res.Reason, "no candidate") &&
						!strings.HasPrefix(res.Reason, "exhausted") &&
						!strings.HasPrefix(res.Reason, "budget") {
						t.Fatalf("%s: non-deterministic unrealized reason %q", name, res.Reason)
					}
				}
			}
		}
	}
}

// TestCertifyCoresAtRequestCap certifies every minimal non-robust core of
// SmallBank, TPC-C and Auction in the four settings at the request cap
// (MaxRequestSchedules per candidate) and pins each outcome: the status,
// the winning candidate or the reason's prefix, and the interleavings
// explored. Every SmallBank core certifies — the paper's Section 7.2
// claim, checked for its cores — and TPC-C {NO, OS} is the one core that
// stays on the budget in every setting. The test also derives the cores,
// so a table row that is no longer a core, or a core without a row, fails.
func TestCertifyCoresAtRequestCap(t *testing.T) {
	type outcome struct {
		status  string
		how     string // the certificate's candidate, or the reason's prefix
		explore int
	}
	want := map[string]outcome{
		"SmallBank/tpl dep/Am,Bal":          {"certified", "canonical", 3},
		"SmallBank/tpl dep/Bal,DC,TS":       {"certified", "canonical", 67_615},
		"SmallBank/tpl dep/WC":              {"certified", "canonical", 4},
		"SmallBank/attr dep/Am,Bal":         {"certified", "canonical", 3},
		"SmallBank/attr dep/Bal,DC,TS":      {"certified", "canonical", 67_615},
		"SmallBank/attr dep/WC":             {"certified", "canonical", 4},
		"SmallBank/tpl dep + FK/Am,Bal":     {"certified", "canonical", 3},
		"SmallBank/tpl dep + FK/Bal,DC,TS":  {"certified", "canonical", 67_615},
		"SmallBank/tpl dep + FK/WC":         {"certified", "canonical", 4},
		"SmallBank/attr dep + FK/Am,Bal":    {"certified", "canonical", 3},
		"SmallBank/attr dep + FK/Bal,DC,TS": {"certified", "canonical", 67_615},
		"SmallBank/attr dep + FK/WC":        {"certified", "canonical", 4},
		"TPC-C/tpl dep/Del":                 {"certified", "canonical", 646},
		"TPC-C/tpl dep/NO,OS":               {"unrealized", "budget", 300_000},
		"TPC-C/tpl dep/Pay":                 {"unrealized", "budget", 100_030},
		"TPC-C/tpl dep/NO,SL":               {"certified", "canonical", 2},
		"TPC-C/attr dep/Del":                {"certified", "canonical", 646},
		"TPC-C/attr dep/NO,OS":              {"unrealized", "budget", 300_000},
		"TPC-C/attr dep/Pay":                {"certified", "guided", 24_091},
		"TPC-C/attr dep/NO,SL":              {"certified", "canonical", 2},
		"TPC-C/tpl dep + FK/Del":            {"certified", "canonical", 646},
		"TPC-C/tpl dep + FK/NO,OS":          {"unrealized", "budget", 300_000},
		"TPC-C/tpl dep + FK/Pay":            {"unrealized", "no candidate instantiation applies", 0},
		"TPC-C/tpl dep + FK/NO,SL":          {"certified", "canonical", 2},
		"TPC-C/attr dep + FK/Del":           {"certified", "canonical", 646},
		"TPC-C/attr dep + FK/NO,OS":         {"unrealized", "budget", 300_000},
		"TPC-C/attr dep + FK/NO,SL":         {"certified", "canonical", 2},
		"Auction/tpl dep/PB":                {"certified", "guided", 379},
		"Auction/attr dep/PB":               {"certified", "guided", 379},
	}
	seen := 0
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.TPCC(), benchmarks.Auction()} {
		for _, setting := range summary.AllSettings {
			sess := analysis.NewSession(b.Schema)
			cfg := analysis.Config{Setting: setting, Method: summary.TypeII}
			n := len(b.Programs)
			robust := make([]bool, 1<<n)
			robust[0] = true
			for mask := 1; mask < 1<<n; mask++ {
				var subset []*btp.Program
				minimal := true
				for i, p := range b.Programs {
					if mask&(1<<i) != 0 {
						subset = append(subset, p)
						minimal = minimal && robust[mask&^(1<<i)]
					}
				}
				res, err := sess.CheckCtx(context.Background(), subset, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if robust[mask] = res.Robust; res.Robust || !minimal {
					continue
				}
				cres, err := Subset(context.Background(), sess, cfg, subset, Options{MaxSchedules: MaxRequestSchedules})
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s/%s", b.Name, setting, strings.Join(cres.Core, ","))
				w, ok := want[key]
				if !ok {
					t.Errorf("%s: a minimal core without a row", key)
					continue
				}
				seen++
				how := cres.Reason
				if cres.Certificate != nil {
					how = cres.Certificate.Candidate
					if err := cres.Certificate.Verify(b.Schema); err != nil {
						t.Errorf("%s: certificate does not verify: %v", key, err)
					}
				}
				if cres.Status.String() != w.status || !strings.HasPrefix(how, w.how) || cres.Explored != w.explore {
					t.Errorf("%s: %s by %q after %d interleavings, want %s by %q after %d",
						key, cres.Status, how, cres.Explored, w.status, w.how, w.explore)
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("%d of the %d rows are minimal cores", seen, len(want))
	}
}
