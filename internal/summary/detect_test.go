package summary

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/relschema"
	"repro/internal/workload"
)

// witnessDigest is the SHA-256 of every verdict and witness over each
// program subset of SmallBank, TPC-C and Auction, in all four settings and
// both methods (520 verdicts, 394 non-robust). The /check witness bytes,
// certify's candidate derivation and the service benchmark's answer key
// all depend on which cycle the detector picks, so a refactor of the cycle
// search must leave this digest unchanged.
const witnessDigest = "2b114e13abce5aa96f9eea328cd05bb350caa4a3cfac790632f108c91350cabf"

// TestWitnessDigest pins witness selection: program i (in Programs order)
// is in the subset iff bit i of the mask is set.
func TestWitnessDigest(t *testing.T) {
	h := sha256.New()
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.TPCC(), benchmarks.Auction()} {
		for _, setting := range AllSettings {
			for mask := 1; mask < 1<<len(b.Programs); mask++ {
				var subset []*btp.Program
				for i, p := range b.Programs {
					if mask&(1<<i) != 0 {
						subset = append(subset, p)
					}
				}
				g := Build(b.Schema, btp.UnfoldAll2(subset), setting)
				for _, m := range []Method{TypeII, TypeI} {
					ok, w := g.Robust(m)
					fmt.Fprintf(h, "%s|%s|%s|%b|%t\n%s", b.Name, setting, m, mask, ok, w)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != witnessDigest {
		t.Fatalf("witness digest = %s, want %s", got, witnessDigest)
	}
}

// literalRobust is the reference verdict the cycle search is tested
// against, computed without detect: HasTypeIICycleLiteral for type II,
// and for type I the condition itself — some counterflow edge whose source
// is Reachable from its target.
func literalRobust(g *Graph, m Method) bool {
	if m == TypeII {
		found, _ := g.HasTypeIICycleLiteral()
		return !found
	}
	for _, e := range g.Edges {
		if e.Class == Counterflow && g.Reachable(e.To, e.From) {
			return false
		}
	}
	return true
}

// checkSubsetDetect holds the cycle search over the subset of the
// composed universe g selected by mask (bit i selects node i) to the
// literal oracles on the summary graph Build constructs for just that
// subset, under both methods. RobustWitness's verdict must equal
// literalRobust's. A non-robust witness mask must be the node set of the
// cycle Robust reports on the subset's own graph — so the collecting
// walk's masks and the streaming walk's witnesses name the same cycle, and
// the mask lies inside the subset — and must itself be non-robust.
func checkSubsetDetect(t *testing.T, name string, schema *relschema.Schema, g *Graph, scratch *DetectScratch, mask uint64) {
	t.Helper()
	var subset []*btp.LTP
	for i, l := range g.Nodes {
		if mask&(1<<i) != 0 {
			subset = append(subset, l)
		}
	}
	ref := Build(schema, subset, g.Setting)
	for _, m := range []Method{TypeII, TypeI} {
		got, wmask := g.RobustWitness(m, []uint64{mask}, scratch)
		if want := literalRobust(ref, m); got != want {
			t.Fatalf("%s, %s, %s, mask %b: RobustWitness=%t, literal=%t", name, g.Setting, m, mask, got, want)
		}
		if got {
			continue
		}
		_, w := ref.Robust(m)
		var cycle uint64
		for _, e := range w.Cycle {
			cycle |= 1 << g.NodeIndex(e.From)
		}
		if wmask[0] != cycle {
			t.Fatalf("%s, %s, %s, mask %b: witness mask %b, Robust's cycle covers %b", name, g.Setting, m, mask, wmask[0], cycle)
		}
		if ok, _ := g.RobustWitness(m, wmask, scratch); ok {
			t.Fatalf("%s, %s, %s, mask %b: witness mask %b is robust", name, g.Setting, m, mask, wmask[0])
		}
	}
}

// FuzzDetectMatchesLiteral runs checkSubsetDetect on the workload
// generated from seed and the LTP subset selected by mask, in every
// setting.
func FuzzDetectMatchesLiteral(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint64(1)<<seed-1)
		f.Add(seed, ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, mask uint64) {
		w := workload.RandomBTPs(rand.New(rand.NewSource(seed)), workload.RandomOptions{MaxPrograms: 5})
		ltps := btp.UnfoldAll2(w.Programs)
		if len(ltps) > 16 {
			ltps = ltps[:16]
		}
		mask &= 1<<len(ltps) - 1
		for _, setting := range AllSettings {
			g := Compose(NewBlockSet(w.Schema, setting), ltps)
			checkSubsetDetect(t, fmt.Sprintf("seed %d", seed), w.Schema, g, g.NewScratch(), mask)
		}
	})
}

// TestRobustWitnessMask: across every benchmark universe, setting, method
// and subset mask, a robust RobustWitness verdict carries no mask, and a
// non-robust one returns a mask that (a) is non-empty, (b) is contained in
// the subset and (c) is itself non-robust — the witness cycle lives inside
// it.
func TestRobustWitnessMask(t *testing.T) {
	for _, bench := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.TPCC(), benchmarks.Auction()} {
		ltps := btp.UnfoldAll2(bench.Programs)
		if len(ltps) > 16 {
			ltps = ltps[:16] // keep the 2^n sweep cheap
		}
		for _, setting := range AllSettings {
			g := Compose(NewBlockSet(bench.Schema, setting), ltps)
			scratch := g.NewScratch()
			words := (len(ltps) + 63) / 64
			for _, method := range []Method{TypeII, TypeI} {
				for mask := 1; mask < 1<<len(ltps); mask++ {
					members := make([]uint64, words)
					for i := 0; i < len(ltps); i++ {
						if mask&(1<<i) != 0 {
							members[i/64] |= 1 << (uint(i) % 64)
						}
					}
					robust, wmask := g.RobustWitness(method, members, scratch)
					if robust {
						if wmask != nil {
							t.Fatalf("robust subset returned a witness mask")
						}
						continue
					}
					if slices.Equal(wmask, make([]uint64, words)) {
						t.Fatalf("%s/%s/%s mask %b: empty witness mask", bench.Name, setting, method, mask)
					}
					for w := range wmask {
						if wmask[w]&^members[w] != 0 {
							t.Fatalf("%s/%s/%s mask %b: witness mask leaves the subset", bench.Name, setting, method, mask)
						}
					}
					if ok, _ := g.RobustWitness(method, wmask, scratch); ok {
						t.Fatalf("%s/%s/%s mask %b: witness mask %b not itself non-robust",
							bench.Name, setting, method, mask, wmask[0])
					}
				}
			}
		}
	}
}
