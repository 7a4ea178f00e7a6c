package analysis_test

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/relschema"
	"repro/internal/summary"
	"repro/internal/workload"
)

// latticeFactDigest is the SHA-256 of everything latticeFactScript pins.
const latticeFactDigest = "e60941dd717c4bf5e6b195e90ef728e0c5c92ed8bb164abc1803d594e65ed114"

// TestLatticeFactDigest pins the fact store's observable output: the
// verdicts, core counts, certified counts and exported cores of a fixed
// script of walks, certifications, imports and invalidations over the
// three benchmarks, Auction(3) and 120 random workloads, plus the full
// pruning telemetry and stream verdicts of a session that walks one
// selection. Stream verdicts are pinned per level as a set (sorted by
// size, then names), not in emission order; a first_non_robust stream
// pins only its stop: the last verdict's size, verdict and decision, the
// core count and the termination. A refactoring of the store or the walk
// that moves any of them moves the digest.
func TestLatticeFactDigest(t *testing.T) {
	d := &factDigest{h: sha256.New()}
	latticeFactScript(t, d)
	if got := hex.EncodeToString(d.h.Sum(nil)); got != latticeFactDigest {
		t.Errorf("lattice fact digest = %s, want %s", got, latticeFactDigest)
	}
}

// factDigest collects the script's output: pinned lines feed the hash,
// and every line — the telemetry that may legitimately move with the
// store's contents included — goes to dump when one is set.
type factDigest struct {
	h    hash.Hash
	dump io.Writer
}

func (d *factDigest) pin(format string, args ...any) {
	line := fmt.Sprintf(format, args...) + "\n"
	io.WriteString(d.h, line)
	if d.dump != nil {
		io.WriteString(d.dump, line)
	}
}

func (d *factDigest) note(format string, args ...any) {
	if d.dump != nil {
		fmt.Fprintf(d.dump, "  ~ "+format+"\n", args...)
	}
}

// latticeFactScript runs the digest script (see TestLatticeFactDigest).
func latticeFactScript(t *testing.T, d *factDigest) {
	type work struct {
		name     string
		schema   *relschema.Schema
		programs []*btp.Program
	}
	var works []work
	for _, b := range append(fixedBenchmarks(), benchmarks.AuctionN(3)) {
		works = append(works, work{b.Name, b.Schema, b.Programs})
	}
	for seed := 0; seed < 120; seed++ {
		w := workload.RandomBTPs(rand.New(rand.NewSource(int64(seed))), workload.RandomOptions{MaxPrograms: 6})
		works = append(works, work{fmt.Sprintf("random-%d", seed), w.Schema, w.Programs})
	}
	for _, w := range works {
		for _, setting := range summary.AllSettings {
			for _, method := range methods {
				d.pin("== %s %s %s", w.name, setting, method)
				factScriptCell(t, d, w.schema, w.programs, analysis.Config{Setting: setting, Method: method})
			}
		}
	}
}

func factScriptCell(t *testing.T, d *factDigest, schema *relschema.Schema, all []*btp.Program, cfg analysis.Config) {
	n := len(all)
	first, second := all[:max(1, n/2)], all[n/2:]
	reversed := slices.Clone(all)
	slices.Reverse(reversed)

	walk := func(label string, sess *analysis.Session, programs []*btp.Program, cfg analysis.Config, pinTelemetry bool) *analysis.SubsetReport {
		rep, err := sess.RobustSubsets(programs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		d.pin("%s robust=%v maximal=%v cores=%d certified=%d", label, rep.Robust, rep.Maximal, rep.Cores, rep.CertifiedCores)
		if pinTelemetry {
			d.pin("%s checked=%d pruned=%d", label, rep.Checked, rep.Pruned)
		} else {
			d.note("%s checked=%d pruned=%d", label, rep.Checked, rep.Pruned)
		}
		d.pin("%s exported=%s", label, renderFacts(sess.ExportCores()))
		return rep
	}

	sess := analysis.NewSession(schema)
	walk("first", sess, first, cfg, true)
	full := walk("full", sess, all, cfg, false)
	walk("first-again", sess, first, cfg, false)
	walk("reversed", sess, reversed, cfg, false)
	walk("second", sess, second, cfg, false)
	bound1 := cfg
	bound1.UnfoldBound = 1
	walk("full-bound1", sess, all, bound1, false)

	var minimal []*btp.Program
	for _, f := range nameSortedFacts(sess.ExportCores()) {
		if f.Bound == btp.DefaultUnfoldBound {
			minimal = f.Programs
			break
		}
	}
	if minimal != nil {
		d.pin("certify-minimal %v", sess.CertifyCore(cfg, minimal))
	}
	if fullNonRobust := len(full.Robust) == 0 || len(full.Robust[len(full.Robust)-1]) != n; fullNonRobust {
		d.pin("certify-full %v", sess.CertifyCore(cfg, all))
	}
	walk("full-certified", sess, all, cfg, false)

	imported := analysis.NewSession(schema)
	d.pin("import cores=%d", imported.ImportCores(sess.ExportCores()))
	d.note("import covers=%d", imported.ImportCovers(sess.ExportCovers()))
	walk("imported-full", imported, all, cfg, false)
	walk("imported-second", imported, second, cfg, false)
	walk("imported-reversed", imported, reversed, cfg, false)

	sess.Invalidate(all[0])
	d.pin("invalidated exported=%s", renderFacts(sess.ExportCores()))
	if n > 1 {
		walk("invalidated-rest", sess, all[1:], cfg, false)
	}

	streamed := analysis.NewSession(schema)
	for _, opts := range []analysis.StreamOptions{
		{Mode: analysis.StreamAll},
		{Mode: analysis.StreamFirstNonRobust},
		{Mode: analysis.StreamMaximalRobust},
		{Mode: analysis.StreamTopK, K: 2},
	} {
		var records []analysis.StreamVerdict
		sum, err := streamed.RobustSubsetsStream(context.Background(), all, cfg, opts, func(v analysis.StreamVerdict) error {
			records = append(records, v)
			return nil
		})
		if err != nil {
			t.Fatalf("stream %s: %v", opts.Mode, err)
		}
		if opts.Mode == analysis.StreamFirstNonRobust {
			// The visit order within a level picks which smallest
			// non-robust subset the stream stops at; pinned is what any
			// order agrees on.
			last := records[len(records)-1]
			d.pin("stream %s last=%d/%v/%s cores=%d terminated=%v reason=%q",
				opts.Mode, last.Size, last.Robust, last.DecidedBy, sum.Cores, sum.Terminated, sum.Reason)
			d.note("stream %s records=%v", opts.Mode, renderVerdicts(records))
			d.note("stream %s emitted=%d checked=%d pruned=%d", opts.Mode, sum.Emitted, sum.Checked, sum.Pruned)
		} else {
			// Each level's verdict set, not the order within the level.
			slices.SortStableFunc(records, func(a, b analysis.StreamVerdict) int {
				return cmp.Or(cmp.Compare(a.Size, b.Size), slices.Compare(a.Programs, b.Programs))
			})
			d.pin("stream %s records=%v", opts.Mode, renderVerdicts(records))
			d.pin("stream %s emitted=%d checked=%d pruned=%d cores=%d terminated=%v reason=%q topk=%v",
				opts.Mode, sum.Emitted, sum.Checked, sum.Pruned, sum.Cores, sum.Terminated, sum.Reason, sum.TopK)
		}
		if sum.Report != nil {
			r := sum.Report
			d.pin("stream %s report robust=%v maximal=%v checked=%d pruned=%d cores=%d certified=%d",
				opts.Mode, r.Robust, r.Maximal, r.Checked, r.Pruned, r.Cores, r.CertifiedCores)
		}
	}
	d.pin("streamed exported=%s", renderFacts(streamed.ExportCores()))
}

// nameSortedFacts orders facts by configuration and then by their sorted
// program short names — an order that does not depend on where the
// programs were allocated.
func nameSortedFacts(facts []analysis.CoreFact) []analysis.CoreFact {
	key := func(f analysis.CoreFact) string {
		return fmt.Sprintf("%s/%s/%d/%v", f.Setting, f.Method, f.Bound, sortedNames(f.Programs))
	}
	sort.SliceStable(facts, func(i, j int) bool { return key(facts[i]) < key(facts[j]) })
	return facts
}

func renderVerdicts(vs []analysis.StreamVerdict) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%v/%d/%v/%s", v.Programs, v.Size, v.Robust, v.DecidedBy)
	}
	return out
}

func renderFacts(facts []analysis.CoreFact) string {
	parts := make([]string, 0, len(facts))
	for _, f := range nameSortedFacts(facts) {
		parts = append(parts, fmt.Sprintf("%s/%s/%d%v/%v", f.Setting, f.Method, f.Bound, sortedNames(f.Programs), f.Certified))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sortedNames(ps []*btp.Program) []string {
	names := coreNames(ps)
	sort.Strings(names)
	return names
}
