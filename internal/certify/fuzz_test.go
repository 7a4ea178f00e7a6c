package certify

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/realize"
	"repro/internal/relschema"
	"repro/internal/schedule"
	"repro/internal/summary"
	"repro/internal/workload"
)

// fuzzBudget caps the interleaving search per fuzz execution: large enough
// to realize the easy anomalies random workloads produce and to cover a
// robust verdict's canonical space widely, small enough that one input
// stays in the millisecond range.
const fuzzBudget = 20_000

// checkSoundness runs the full certification property for one seed:
//
//   - the generator's own contract — every program validates;
//   - soundness of a Robust verdict — a bounded counterexample search over
//     the canonical instantiation (two instances per unfolding) must find
//     no non-serializable MVRC schedule, since robustness promises none
//     exists at any budget;
//   - consistency of a non-robust verdict — certification must complete
//     without error, any certificate must verify on a fresh replay, and an
//     Unrealized outcome must carry one of the documented reasons.
func checkSoundness(t *testing.T, seed int64, opts workload.RandomOptions) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := workload.RandomBTPs(rng, opts)
	for _, p := range w.Programs {
		if err := p.Validate(w.Schema); err != nil {
			t.Fatalf("seed %d: generated program invalid: %v", seed, err)
		}
	}
	sess := analysis.NewSession(w.Schema)
	cfg := analysis.Config{Setting: summary.SettingAttrDepFK, Method: summary.TypeII}
	res, err := sess.CheckCtx(context.Background(), w.Programs, cfg)
	if err != nil {
		t.Fatalf("seed %d: check failed: %v", seed, err)
	}
	if res.Robust {
		if found := canonicalSearch(w.Schema, btp.UnfoldAll(w.Programs, 0)); found != nil {
			t.Fatalf("seed %d: SOUNDNESS VIOLATION — robust verdict but non-serializable schedule exists:\n%s",
				seed, found)
		}
		return
	}
	cres, err := Subset(context.Background(), sess, cfg, w.Programs, Options{MaxSchedules: fuzzBudget})
	if err != nil {
		t.Fatalf("seed %d: certification errored: %v", seed, err)
	}
	switch cres.Status {
	case Certified:
		if err := cres.Certificate.Verify(w.Schema); err != nil {
			t.Fatalf("seed %d: certificate does not verify: %v", seed, err)
		}
	case Unrealized:
		if !strings.HasPrefix(cres.Reason, "no candidate") &&
			!strings.HasPrefix(cres.Reason, "exhausted") &&
			!strings.HasPrefix(cres.Reason, "budget") {
			t.Fatalf("seed %d: undocumented unrealized reason %q", seed, cres.Reason)
		}
	default:
		t.Fatalf("seed %d: non-robust verdict certified as %s", seed, cres.Status)
	}
}

// canonicalSearch searches two instances of each unfolding, capped at six
// instances, over realize's canonical tuple population — the search a
// robust verdict is held to — and returns the counterexample it finds (nil
// for none, or when the population does not instantiate them). The cap
// keeps the factorial interleaving space inside the budget's reach, and it
// never produces a false alarm: any counterexample over fewer instances is
// still a counterexample. CandidateSets derives the population from a
// witness cycle: without ExtraInstances, one whose edges leave the
// instances in order yields exactly that instance list as its canonical
// candidate; the guided one needs edge statements this cycle lacks.
func canonicalSearch(schema *relschema.Schema, ltps []*btp.LTP) *schedule.Schedule {
	instances := append(append([]*btp.LTP{}, ltps...), ltps...)
	instances = instances[:min(len(instances), 6)]
	cycle := make([]summary.Edge, len(instances))
	for i, l := range instances {
		cycle[i] = summary.Edge{From: l, To: instances[(i+1)%len(instances)]}
	}
	cands, _ := realize.CandidateSets(schema, &summary.Witness{Cycle: cycle}, realize.Options{})
	for _, c := range cands {
		if c.Name != "canonical" {
			continue
		}
		res, err := enumerate.FindCounterexample(schema, c.Instances, enumerate.Options{MaxSchedules: fuzzBudget})
		if err == nil && res.Found {
			return res.Schedule
		}
	}
	return nil
}

// FuzzRandomWorkloadSoundness is the continuous soundness fuzzer: each
// input seeds the workload generator and runs the full static-verdict ↔
// concrete-schedule consistency property.
func FuzzRandomWorkloadSoundness(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSoundness(t, seed, workload.RandomOptions{})
	})
}

// FuzzCertifyRoundTrip drives certification twice per seed: a certified
// verdict must be reproducible, its certificate must verify on a fresh
// replay, and the certified provenance bit must land in the session's fact
// store exactly once.
func FuzzCertifyRoundTrip(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		w := workload.RandomBTPs(rng, workload.RandomOptions{})
		sess := analysis.NewSession(w.Schema)
		cfg := analysis.Config{Setting: summary.SettingAttrDepFK, Method: summary.TypeII}
		res, err := Subset(context.Background(), sess, cfg, w.Programs, Options{MaxSchedules: fuzzBudget})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Status != Certified {
			return
		}
		if err := res.Certificate.Verify(w.Schema); err != nil {
			t.Fatalf("seed %d: certificate does not verify: %v", seed, err)
		}
		if res.NewlyCertified && sess.Stats().Cores.Certified == 0 {
			t.Fatalf("seed %d: newly-certified core missing from the session stats", seed)
		}
		again, err := Subset(context.Background(), sess, cfg, w.Programs, Options{MaxSchedules: fuzzBudget})
		if err != nil {
			t.Fatalf("seed %d: re-certification errored: %v", seed, err)
		}
		if again.Status != Certified {
			t.Fatalf("seed %d: certification not reproducible: %s (reason %q)", seed, again.Status, again.Reason)
		}
		if again.NewlyCertified {
			t.Fatalf("seed %d: certified bit set twice for one core", seed)
		}
	})
}

// TestRandomWorkloadSoundness500 is the acceptance property: 500 seeds
// through the soundness check, no violations.
func TestRandomWorkloadSoundness500(t *testing.T) {
	if testing.Short() {
		t.Skip("500-seed property skipped in -short mode")
	}
	for seed := int64(1); seed <= 500; seed++ {
		checkSoundness(t, seed, workload.RandomOptions{})
	}
}

// TestRandomWorkloadGeneratorShapes pins the generator's variety: across a
// few hundred seeds it must emit FK annotations, non-linear structure and
// predicate statements — otherwise the fuzz lane silently stops covering
// the paths it exists for.
func TestRandomWorkloadGeneratorShapes(t *testing.T) {
	var fks, structured, preds int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := workload.RandomBTPs(rng, workload.RandomOptions{})
		for _, p := range w.Programs {
			if len(p.FKs) > 0 {
				fks++
			}
			for _, q := range p.Statements() {
				if !q.Type.IsKeyBased() {
					preds++
				}
			}
			if strings.ContainsAny(p.String(), "|(") {
				structured++
			}
		}
	}
	if fks == 0 || preds == 0 || structured == 0 {
		t.Fatalf("generator coverage collapsed: %d FK-annotated programs, %d predicate statements, %d structured bodies",
			fks, preds, structured)
	}
}
