package summary

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/relschema"
	"repro/internal/workload"
)

// TestBlockSetCaches checks that Ensure fills every ordered pair and that a
// Compose afterwards is answered from the cache alone: every pair a hit,
// none derived again, and the graph equal to Build's edge for edge.
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
	before := bs.Stats()
	g := Compose(bs, ltps)
	after := bs.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != uint64(len(ltps)*len(ltps)) || misses != 0 {
		t.Fatalf("warm compose: %d hits, %d misses, want %d and 0", hits, misses, len(ltps)*len(ltps))
	}
	want := Build(b.Schema, ltps, SettingAttrDepFK)
	if len(g.Edges) != len(want.Edges) {
		t.Fatalf("composed %d edges, Build %d", len(g.Edges), len(want.Edges))
	}
	for i := range g.Edges {
		if g.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d: %s != %s", i, g.Edges[i], want.Edges[i])
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

// requireBuildGraph fails unless g has exactly the edges and endpoint
// indices Build derives for ltps, in Build's order.
func requireBuildGraph(t *testing.T, name string, schema *relschema.Schema, ltps []*btp.LTP, setting Setting, g *Graph) {
	t.Helper()
	want := Build(schema, ltps, setting)
	if !slices.Equal(g.Edges, want.Edges) || !slices.Equal(g.edgeFrom, want.edgeFrom) || !slices.Equal(g.edgeTo, want.edgeTo) {
		t.Errorf("%s: composed graph of %d LTPs diverges from Build (%d vs %d edges)", name, len(ltps), len(g.Edges), len(want.Edges))
	}
}

// checkBlockSetInvariants holds the storage to its bookkeeping: every slot
// below next is either held by exactly one LTP or free; only pairs of held
// slots are cached; every span lies inside the arena; and pairs and live
// count the cached spans and their edges.
func checkBlockSetInvariants(t *testing.T, bs *BlockSet) {
	t.Helper()
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	held := make([]bool, bs.next)
	seen := make([]bool, bs.next)
	for _, s := range bs.slots {
		if s < 0 || s >= bs.next || seen[s] {
			t.Fatalf("slot %d held twice or out of range (next %d)", s, bs.next)
		}
		held[s], seen[s] = true, true
	}
	for _, s := range bs.free {
		if s < 0 || s >= bs.next || seen[s] {
			t.Fatalf("free slot %d held, freed twice or out of range (next %d)", s, bs.next)
		}
		seen[s] = true
	}
	if !slices.Equal(seen, slices.Repeat([]bool{true}, int(bs.next))) {
		t.Fatalf("a slot below next %d is neither held nor free", bs.next)
	}
	pairs, live := 0, 0
	for k, sp := range bs.spans {
		if sp.off == 0 {
			continue
		}
		i, j := k/bs.dim, k%bs.dim
		if i >= int(bs.next) || j >= int(bs.next) || !held[i] || !held[j] {
			t.Fatalf("pair (%d, %d) cached for a slot no LTP holds", i, j)
		}
		if int(sp.off)+int(sp.n) > len(bs.arena) {
			t.Fatalf("pair (%d, %d) spans [%d, +%d) past the arena's %d edges", i, j, sp.off, sp.n, len(bs.arena))
		}
		pairs++
		live += int(sp.n)
	}
	if pairs != bs.pairs || live != bs.live {
		t.Fatalf("table holds %d pairs and %d edges, bookkeeping says %d and %d", pairs, live, bs.pairs, bs.live)
	}
}

// TestGraphSizeBytesCountsEdges: a composed graph's Edge values exist only
// in the graph — the block set keeps its edges packed — so the graph's
// estimate counts each one at full size.
func TestGraphSizeBytesCountsEdges(t *testing.T) {
	bench := benchmarks.AuctionN(6)
	g := Compose(NewBlockSet(bench.Schema, SettingAttrDepFK), btp.UnfoldAll2(bench.Programs))
	if len(g.Edges) != 372 {
		t.Fatalf("Auction(6) composed %d edges, want 372", len(g.Edges))
	}
	if got, min := g.SizeBytes(), int64(len(g.Edges))*int64(unsafe.Sizeof(Edge{})); got < min {
		t.Errorf("SizeBytes = %d, below the %d bytes of its %d Edge values", got, min, len(g.Edges))
	}
}

// TestColdComposeAllocsPerLTP pins that a cold check allocates per LTP, not
// per pair: a cold Compose plus Robust over Auction(40) — 120 LTPs, 14,400
// ordered pairs, the loop of BenchmarkIntraCheck/Auction-n40 — makes at
// most one allocation per LTP (75 today). AllocsPerRun measures at
// GOMAXPROCS 1, so the count is exact on any runner and under -race.
func TestColdComposeAllocsPerLTP(t *testing.T) {
	bench := benchmarks.AuctionN(40)
	ltps := btp.UnfoldAll2(bench.Programs)
	allocs := testing.AllocsPerRun(3, func() {
		if ok, _ := Compose(NewBlockSet(bench.Schema, SettingAttrDepFK), ltps).Robust(TypeII); !ok {
			t.Fatal("Auction(40) must be robust under attr+FK/type-II")
		}
	})
	if allocs > float64(len(ltps)) {
		t.Errorf("cold Compose+Robust over Auction(40) = %.0f allocs/op, want <= %d (one per LTP)", allocs, len(ltps))
	}
}

// TestBlockSetChurnBounded replays PATCH churn on one block set: 1,000
// times, one Auction(6) program's LTPs are invalidated and a fresh
// unfolding is composed with the others. Released slots are reused, so the
// table never widens; the arena is compacted, so its dead edges stay
// within a constant of the live ones; and the estimate stays within a
// constant of its one-cycle value, because the retired set keeps only the
// retire.Cap most recently retired LTPs.
func TestBlockSetChurnBounded(t *testing.T) {
	bench := benchmarks.AuctionN(6)
	bs := NewBlockSet(bench.Schema, SettingAttrDepFK)
	victim := bench.Programs[1]
	var others []*btp.LTP
	for _, p := range bench.Programs {
		if p != victim {
			others = append(others, btp.Unfold2(p)...)
		}
	}
	cur := btp.Unfold2(victim)
	Compose(bs, append(slices.Clone(cur), others...))
	cycle := func(c int) {
		bs.Invalidate(cur)
		cur = btp.Unfold2(victim)
		ltps := append(slices.Clone(cur), others...)
		if g := Compose(bs, ltps); c%100 == 0 {
			requireBuildGraph(t, fmt.Sprintf("cycle %d", c), bench.Schema, ltps, SettingAttrDepFK, g)
		}
	}
	cycle(1)
	dim, size, live := bs.dim, bs.SizeBytes(), bs.live
	for c := 2; c <= 1000; c++ {
		cycle(c)
	}
	checkBlockSetInvariants(t, bs)
	if bs.dim != dim {
		t.Errorf("table dimension %d after 1,000 cycles, %d after one", bs.dim, dim)
	}
	if bs.live != live {
		t.Errorf("live edges %d after 1,000 cycles, %d after one", bs.live, live)
	}
	// Between compactions the arena gains at most one cycle's row and
	// column, which is within the live edges.
	if limit := 3*bs.live + compactSlack + 1; len(bs.arena) > limit {
		t.Errorf("arena holds %d edges for %d live ones, want <= %d", len(bs.arena), bs.live, limit)
	}
	const slack = 4 << 10
	if got := bs.SizeBytes(); got > size+slack {
		t.Errorf("SizeBytes %d after 1,000 cycles, %d after one: grew by more than %d", got, size, slack)
	}
}

// TestBlockSetConcurrentChurn hammers one block set per benchmark under the
// race detector: composers build overlapping LTP subsets and ensure others
// while a churner PATCHes the first program — invalidates its LTPs and
// composes a fresh unfolding of it or, every other cycle, of the last
// program, so the reused slots hold differently shaped LTPs — and retires
// a straggler's unfolding. Slots are released and reused under the
// composers and some of them present retired LTPs. Every composed graph
// must equal Build edge for edge, and the storage must be consistent
// afterwards.
func TestBlockSetConcurrentChurn(t *testing.T) {
	const composers, rounds, cycles = 4, 40, 60
	for i, bench := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.TPCC(), benchmarks.AuctionN(6)} {
		setting := AllSettings[(i+1)%len(AllSettings)]
		bs := NewBlockSet(bench.Schema, setting)
		n := len(bench.Programs)
		cur := make([]atomic.Pointer[[]*btp.LTP], n)
		for p, prog := range bench.Programs {
			ltps := btp.Unfold2(prog)
			cur[p].Store(&ltps)
		}
		subset := func(mask int) []*btp.LTP {
			var ltps []*btp.LTP
			for p := range n {
				if mask&(1<<p) != 0 {
					ltps = append(ltps, *cur[p].Load()...)
				}
			}
			return ltps
		}
		var wg sync.WaitGroup
		wg.Add(composers + 1)
		go func() {
			defer wg.Done()
			for c := range cycles {
				victim := bench.Programs[(c%2)*(n-1)]
				bs.Invalidate(*cur[0].Load())
				fresh := btp.Unfold2(victim)
				cur[0].Store(&fresh)
				ltps := subset(1<<n - 1)
				requireBuildGraph(t, fmt.Sprintf("%s churn %d", bench.Name, c), bench.Schema, ltps, setting, Compose(bs, ltps))
				if c%7 == 0 {
					straggler := btp.Unfold2(victim)
					bs.Retire(straggler)
					ltps = append(straggler, subset(1<<n-2)...)
					requireBuildGraph(t, fmt.Sprintf("%s straggler %d", bench.Name, c), bench.Schema, ltps, setting, Compose(bs, ltps))
				}
			}
		}()
		for w := range composers {
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for r := range rounds {
					ltps := subset(1 + rng.Intn(1<<n-1))
					if r%5 == 4 {
						bs.Ensure(ltps)
					} else {
						requireBuildGraph(t, fmt.Sprintf("%s composer %d round %d", bench.Name, w, r), bench.Schema, ltps, setting, Compose(bs, ltps))
					}
					bs.Stats()
					bs.SizeBytes()
				}
			}()
		}
		wg.Wait()
		checkBlockSetInvariants(t, bs)
	}
}

// FuzzComposeMatchesBuild drives one block set through an op sequence over
// a workload.RandomBTPs workload. Each pair of op bytes (op, arg) composes
// the programs whose bits are set in arg, invalidates the current LTPs of
// program arg (which stay in use, as a straggler's would) or re-unfolds
// program arg — as the program arg>>4 names, so a PATCH can change its
// shape. Every compose must equal Build edge for edge, and the storage
// must stay consistent after every op.
func FuzzComposeMatchesBuild(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 7, 1, 0, 0, 7, 2, 0, 0, 7})
	f.Add(int64(2), uint8(0), []byte{0, 3, 1, 1, 2, 1, 0, 3, 1, 0, 0, 7, 2, 0, 0, 5})
	f.Add(int64(7), uint8(2), []byte{0, 1, 0, 6, 1, 2, 0, 7, 2, 2, 0, 4, 1, 1, 1, 2, 0, 7})
	f.Fuzz(func(t *testing.T, seed int64, setting uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		w := workload.RandomBTPs(rand.New(rand.NewSource(seed)), workload.RandomOptions{})
		set := AllSettings[int(setting)%len(AllSettings)]
		bs := NewBlockSet(w.Schema, set)
		cur := make([][]*btp.LTP, len(w.Programs))
		for p, prog := range w.Programs {
			cur[p] = btp.Unfold2(prog)
		}
		for k := 0; k+1 < len(ops); k += 2 {
			arg := int(ops[k+1])
			p := arg % len(w.Programs)
			switch ops[k] % 3 {
			case 0:
				var ltps []*btp.LTP
				for q := range w.Programs {
					if arg&(1<<(q%8)) != 0 {
						ltps = append(ltps, cur[q]...)
					}
				}
				requireBuildGraph(t, fmt.Sprintf("op %d", k/2), w.Schema, ltps, set, Compose(bs, ltps))
			case 1:
				bs.Invalidate(cur[p])
			case 2:
				cur[p] = btp.Unfold2(w.Programs[(arg>>4)%len(w.Programs)])
			}
			checkBlockSetInvariants(t, bs)
		}
	})
}
