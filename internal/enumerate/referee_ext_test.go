package enumerate_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/realize"
	"repro/internal/relschema"
	"repro/internal/summary"
	"repro/internal/workload"
)

// refereeBudget caps each candidate's search in the referee runs, at the
// service benchmark's budget: the reference builds and checks a whole
// schedule per interleaving, so the budget keeps the sweep within a few
// seconds while it still exhausts the small spaces and cuts the large
// ones.
const refereeBudget = 1000

// checkWitnessCandidates holds the search to the reference on every
// certification candidate of a non-robust verdict (realize.Candidates, over
// the setting's foreign-key space), skipping candidates already seen (many
// subsets share a witness). It returns the number of candidates checked.
func checkWitnessCandidates(t testing.TB, schema *relschema.Schema, setting summary.Setting, w *summary.Witness, seen map[string]bool, budget int) int {
	t.Helper()
	checked := 0
	cands, _ := realize.Candidates(schema, w, !setting.UseForeignKeys)
	for _, c := range cands {
		key := render(c.Instances)
		if seen[key] {
			continue
		}
		seen[key] = true
		enumerate.CheckCandidate(t, schema, c.Instances, budget)
		checked++
	}
	return checked
}

// render identifies a candidate by its LTPs' names and tuple assignments,
// which fix the transactions it instantiates.
func render(instances []enumerate.Instance) string {
	var b strings.Builder
	for _, inst := range instances {
		fmt.Fprintf(&b, "%s{", inst.LTP.Name)
		for _, occ := range inst.LTP.Stmts {
			fmt.Fprintf(&b, "%s=%s%v ", occ.Stmt.Name, inst.Assignment.Key[occ], inst.Assignment.Pred[occ])
		}
		fmt.Fprintf(&b, "fk=%v}", inst.Assignment.FK)
	}
	return b.String()
}

// TestSearchMatchesReferenceBenchmarks runs the referee on every
// candidate of every statically non-robust subset of SmallBank, TPC-C and
// Auction in the four settings.
func TestSearchMatchesReferenceBenchmarks(t *testing.T) {
	checked := 0
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.TPCC(), benchmarks.Auction()} {
		sess := analysis.NewSession(b.Schema)
		seen := map[string]bool{}
		for _, setting := range summary.AllSettings {
			cfg := analysis.Config{Setting: setting, Method: summary.TypeII}
			n := len(b.Programs)
			for mask := 1; mask < 1<<n; mask++ {
				var subset []*btp.Program
				for i, p := range b.Programs {
					if mask&(1<<i) != 0 {
						subset = append(subset, p)
					}
				}
				res, err := sess.CheckCtx(context.Background(), subset, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Robust {
					checked += checkWitnessCandidates(t, b.Schema, setting, res.Witness, seen, refereeBudget)
				}
			}
		}
	}
	t.Logf("%d candidates checked", checked)
	if checked < 80 {
		t.Fatalf("only %d candidates checked", checked)
	}
}

// checkRandomWorkload runs the referee on the candidates of one random
// workload (workload.RandomBTPs), analysed in the setting the seed picks.
func checkRandomWorkload(t testing.TB, seed int64) {
	t.Helper()
	w := workload.RandomBTPs(rand.New(rand.NewSource(seed)), workload.RandomOptions{})
	setting := summary.AllSettings[uint64(seed)%uint64(len(summary.AllSettings))]
	sess := analysis.NewSession(w.Schema)
	res, err := sess.CheckCtx(context.Background(), w.Programs, analysis.Config{Setting: setting, Method: summary.TypeII})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !res.Robust {
		checkWitnessCandidates(t, w.Schema, setting, res.Witness, map[string]bool{}, refereeBudget)
	}
}

// FuzzSearchMatchesReference runs the referee over random workloads: each
// input seeds one whose certification candidates the search and the
// reference must agree on, leaf by leaf. Plain go test runs the 50 seeds
// below.
func FuzzSearchMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 50; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkRandomWorkload(t, seed) })
}
