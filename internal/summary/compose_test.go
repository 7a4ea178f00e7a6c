package summary

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/relschema"
	"repro/internal/workload"
)

// TestBlockSetCaches checks that Ensure fills every ordered pair and that
// PairEdges hands out the cached block afterwards.
func TestBlockSetCaches(t *testing.T) {
	b := benchmarks.Auction()
	ltps := btp.UnfoldAll2(b.Programs)
	bs := NewBlockSet(b.Schema, SettingAttrDepFK)
	bs.Ensure(ltps)
	if got, want := bs.Len(), len(ltps)*len(ltps); got != want {
		t.Fatalf("cached pairs = %d, want %d", got, want)
	}
	if bs.Setting() != SettingAttrDepFK {
		t.Fatalf("setting = %v", bs.Setting())
	}
	// Block contents must match the corresponding contiguous segment of a
	// freshly built graph.
	g := Build(b.Schema, ltps, SettingAttrDepFK)
	var recomposed []Edge
	for _, pi := range ltps {
		for _, pj := range ltps {
			recomposed = append(recomposed, bs.PairEdges(pi, pj)...)
		}
	}
	if len(recomposed) != len(g.Edges) {
		t.Fatalf("recomposed %d edges, Build %d", len(recomposed), len(g.Edges))
	}
	for i := range recomposed {
		if recomposed[i] != g.Edges[i] {
			t.Fatalf("edge %d: %s != %s", i, recomposed[i], g.Edges[i])
		}
	}
}

// TestSubsetDetectorMatchesBuild runs checkSubsetDetect on every LTP
// subset of the Auction and SmallBank universes and of random workloads,
// in all settings.
func TestSubsetDetectorMatchesBuild(t *testing.T) {
	type universe struct {
		name   string
		schema *relschema.Schema
		ltps   []*btp.LTP
	}
	var universes []universe
	for _, bench := range []*benchmarks.Benchmark{benchmarks.Auction(), benchmarks.SmallBank()} {
		universes = append(universes, universe{bench.Name, bench.Schema, btp.UnfoldAll2(bench.Programs)})
	}
	for seed := int64(1); seed <= 40; seed++ {
		w := workload.RandomBTPs(rand.New(rand.NewSource(seed)), workload.RandomOptions{})
		ltps := btp.UnfoldAll2(w.Programs)
		if len(ltps) > 8 {
			ltps = ltps[:8] // keep the 2^n sweep cheap
		}
		universes = append(universes, universe{fmt.Sprintf("random seed %d", seed), w.Schema, ltps})
	}
	for _, u := range universes {
		if len(u.ltps) > 10 {
			t.Fatalf("%s universe too large for exhaustive subset check", u.name)
		}
		for _, setting := range AllSettings {
			g := Compose(NewBlockSet(u.schema, setting), u.ltps)
			scratch := g.NewScratch()
			for mask := uint64(0); mask < 1<<len(u.ltps); mask++ {
				checkSubsetDetect(t, u.name, u.schema, g, scratch, mask)
			}
		}
	}
}

// TestBlockSetSizeBytes: the size estimate starts at the fixed overhead,
// grows with cached pairs, and shrinks when pairs are invalidated — the
// monotonicity the server's -max-bytes eviction policy relies on.
func TestBlockSetSizeBytes(t *testing.T) {
	b := benchmarks.SmallBank()
	ltps := btp.UnfoldAll2(b.Programs)
	bs := NewBlockSet(b.Schema, SettingAttrDepFK)
	cold := bs.SizeBytes()
	if cold <= 0 {
		t.Fatalf("cold SizeBytes = %d, want positive overhead", cold)
	}
	bs.Ensure(ltps)
	warm := bs.SizeBytes()
	if warm <= cold {
		t.Fatalf("warm SizeBytes = %d, not above cold %d despite %d cached pairs", warm, cold, bs.Len())
	}
	bs.Invalidate(ltps[:1])
	if shrunk := bs.SizeBytes(); shrunk >= warm {
		t.Errorf("SizeBytes after invalidation = %d, want below %d", shrunk, warm)
	}
}

// TestComposeCtxMatchesBuild: a graph composed under a context from a cold
// block set must equal Build edge for edge, in every setting.
func TestComposeCtxMatchesBuild(t *testing.T) {
	bench := benchmarks.AuctionN(6)
	ltps := btp.UnfoldAll2(bench.Programs)
	for _, setting := range AllSettings {
		want := Build(bench.Schema, ltps, setting)
		got, err := ComposeCtx(context.Background(), NewBlockSet(bench.Schema, setting), ltps, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Edges) != len(want.Edges) {
			t.Fatalf("%s: composed %d edges, Build %d", setting, len(got.Edges), len(want.Edges))
		}
		for i := range got.Edges {
			if got.Edges[i] != want.Edges[i] {
				t.Fatalf("%s: edge %d = %s, want %s", setting, i, got.Edges[i], want.Edges[i])
			}
		}
		if got.String() != want.String() {
			t.Errorf("%s: graph dump diverges", setting)
		}
	}
}

// TestComposeCtxEdgeCases covers the degenerate universes: the empty LTP
// list (a trivially robust empty graph) and a single-program workload.
func TestComposeCtxEdgeCases(t *testing.T) {
	bench := benchmarks.SmallBank()
	bs := NewBlockSet(bench.Schema, SettingAttrDepFK)

	// Empty LTP list: no nodes, no edges, robust under both methods.
	g, err := ComposeCtx(context.Background(), bs, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 0 || len(g.Edges) != 0 {
		t.Fatalf("empty universe composed %d nodes, %d edges", len(g.Nodes), len(g.Edges))
	}
	for _, m := range []Method{TypeI, TypeII} {
		if ok, w := g.Robust(m); !ok || w != nil {
			t.Fatalf("empty graph not robust under %s", m)
		}
	}
	if bs.Len() != 0 {
		t.Fatalf("empty compose cached %d pairs", bs.Len())
	}

	// Single-program workload: Balance unfolds to one LTP; the 1×1 block
	// must match Build, with the single self-pair cached.
	single := btp.UnfoldAll2([]*btp.Program{bench.Program("Balance")})
	got, err := ComposeCtx(context.Background(), NewBlockSet(bench.Schema, SettingAttrDepFK), single, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Build(bench.Schema, single, SettingAttrDepFK)
	if got.String() != want.String() {
		t.Fatalf("single-program graph diverges from Build:\n%s\nvs\n%s", got, want)
	}
	wantOK, _ := want.Robust(TypeII)
	gotOK, _ := got.Robust(TypeII)
	if gotOK != wantOK {
		t.Fatalf("single-program verdict %t, want %t", gotOK, wantOK)
	}

	// An Ensure over the empty list is a no-op, not a panic.
	if err := bs.EnsureCtx(context.Background(), nil, 0); err != nil {
		t.Fatal(err)
	}
}

// TestEnsureCtxCancellation: a cancelled context aborts the pair
// computation with the context's error; already-computed pairs stay cached
// and valid.
func TestEnsureCtxCancellation(t *testing.T) {
	bench := benchmarks.AuctionN(4)
	ltps := btp.UnfoldAll2(bench.Programs)
	bs := NewBlockSet(bench.Schema, SettingAttrDepFK)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := bs.EnsureCtx(ctx, ltps, 0); err == nil {
		t.Fatal("cancelled EnsureCtx returned nil")
	}
	if _, err := ComposeCtx(ctx, bs, ltps, 0); err == nil {
		t.Fatal("cancelled ComposeCtx returned nil error")
	}
	// Whatever made it into the cache must still be correct.
	g := Compose(bs, ltps)
	want := Build(bench.Schema, ltps, SettingAttrDepFK)
	if g.String() != want.String() {
		t.Error("post-cancellation compose diverges from Build")
	}
}
