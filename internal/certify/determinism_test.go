package certify_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/summary"
	"repro/internal/wire"
)

// TestCertifyDeterministic certifies one core three times — twice on
// fresh sessions and once inside a session that certifies every subset of
// its benchmark in mask order — and requires the same status, candidate,
// explored count and wire JSON each time. SmallBank {Bal, DC, TS} needs
// 67,615 interleavings of its canonical candidate, so any drift in the
// candidates' instance order or the search order shows; Auction {PB} is
// certified by the guided candidate.
func TestCertifyDeterministic(t *testing.T) {
	for _, tc := range []struct {
		bench    *benchmarks.Benchmark
		setting  summary.Setting
		programs []string
	}{
		{benchmarks.SmallBank(), summary.SettingAttrDepFK, []string{"Bal", "DC", "TS"}},
		{benchmarks.Auction(), summary.SettingAttrDep, []string{"PB"}},
	} {
		b := tc.bench
		cfg := analysis.Config{Setting: tc.setting, Method: summary.TypeII}
		opts := certify.Options{MaxSchedules: certify.MaxRequestSchedules}
		var target []*btp.Program
		targetMask := 0
		for _, name := range tc.programs {
			for i, p := range b.Programs {
				if p.ShortName() == name {
					target = append(target, p)
					targetMask |= 1 << i
				}
			}
		}
		if len(target) != len(tc.programs) {
			t.Fatalf("%s: programs %v not found", b.Name, tc.programs)
		}
		render := func(res *certify.Result) string {
			var buf bytes.Buffer
			if err := wire.WriteJSON(&buf, wire.NewCertifyResponse(cfg, target, res)); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}

		var runs []string
		var first *certify.Result
		for range 2 {
			res, err := certify.Subset(context.Background(), analysis.NewSession(b.Schema), cfg, target, opts)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
			}
			runs = append(runs, render(res))
		}
		sess := analysis.NewSession(b.Schema)
		for mask := 1; mask < 1<<len(b.Programs); mask++ {
			var subset []*btp.Program
			for i, p := range b.Programs {
				if mask&(1<<i) != 0 {
					subset = append(subset, p)
				}
			}
			res, err := certify.Subset(context.Background(), sess, cfg, subset, opts)
			if err != nil {
				t.Fatal(err)
			}
			if mask == targetMask {
				runs = append(runs, render(res))
			}
		}

		if first.Status != certify.Certified {
			t.Fatalf("%s %v: %s (%s), want certified", b.Name, tc.programs, first.Status, first.Reason)
		}
		for i, r := range runs[1:] {
			if r != runs[0] {
				t.Fatalf("%s %v: run %d differs from the first fresh run\ngot:\n%s\nfirst:\n%s", b.Name, tc.programs, i+2, r, runs[0])
			}
		}
		t.Logf("%s %v: %s by %s after %d interleavings", b.Name, tc.programs, first.Status, first.Certificate.Candidate, first.Explored)
	}
}
