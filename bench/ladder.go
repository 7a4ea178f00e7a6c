package bench

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/enumerate"
	"repro/internal/faultfs"
	"repro/internal/instantiate"
	"repro/internal/realize"
	"repro/internal/relschema"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/sqlbtp"
	"repro/internal/summary"
	"repro/internal/wire"
)

// ladder is the traced run's per-layer measurement. After the load phase
// it times calls into each module's public functions on the workload's
// seeded inputs, one rung per layer, and replays one request script three
// ways: through the server child over loopback, through the same server
// code in-process, and through the decomposed pipeline.
type ladder struct {
	b     *Bench
	w     *workload
	env   *runEnv
	tr    *tracer
	rep   *Report
	seed  uint64
	child target
	// certifyFor bounds the certify rung (at least two cores run).
	certifyFor time.Duration

	pipe     *pipeline
	pairs    map[string][]stepTiming // by op: one script step on the three targets
	missFrac float64                 // share of in-process subsets answered by the engine, not the result cache
	counts   map[string]float64      // single readings: counts, ratios, sizes
}

// stepTiming is one script step's in-process handler and loopback
// latencies, and the decomposed pipeline's decode and other module time.
type stepTiming struct {
	handler, loopback, decode, work time.Duration
}

// handlerOps are the request types whose in-process handler time, loopback
// cost and unattributed share are reported.
var handlerOps = []string{"check", "subsets", "stream", "register"}

func (l *ladder) run(ctx context.Context) error {
	l.counts = map[string]float64{}
	l.pipe = newPipeline(ctx, l.tr, l.registryCap())
	for _, rung := range []func(context.Context) error{l.buildRungs, l.replay, l.certifyRung, l.snapshotRung} {
		if err := rung(ctx); err != nil {
			return err
		}
	}
	return nil
}

// registryCap is the registry capacity the workload runs the server with.
func (l *ladder) registryCap() int {
	if l.w.maxWorkloads > 0 {
		return l.w.maxWorkloads
	}
	return server.DefaultMaxWorkloads
}

// input is one program set the workload submits, with the SQL that
// produces it when the workload submits SQL.
type input struct {
	schema   *relschema.Schema
	programs []*btp.Program
	source   *sqlbtp.Source
}

// inputs lists the workload's program sets: its benchmarks with their
// postgres corpus scripts (patch-churn: the PATCH variants instead), or
// for cold-analysis every corpus script and every Auction(n).
func (l *ladder) inputs() ([]input, error) {
	var out []input
	if l.w.name == "cold-analysis" {
		for _, c := range l.b.exp.Corpus {
			src := &sqlbtp.Source{Dialect: c.Dialect, Script: l.b.corpus[c.File]}
			wl, err := sqlbtp.Compile(*src)
			if err != nil {
				return nil, err
			}
			out = append(out, input{wl.Schema, wl.Programs, src})
		}
		for _, n := range auctionNs {
			b := benchmarks.AuctionN(n)
			out = append(out, input{b.Schema, b.Programs, nil})
		}
		return out, nil
	}
	for _, name := range l.w.benchmarks {
		b, err := benchmarks.ByName(name, 1)
		if err != nil {
			return nil, err
		}
		src := &sqlbtp.Source{Dialect: "postgres", Script: l.b.corpus["postgres/"+name+".sql"]}
		for _, p := range patches {
			if p.workload == name && l.w.stateDir {
				src = &sqlbtp.Source{Dialect: "embedded", Script: p.sql(0), Schema: b.Schema}
				odd, err := patchedPrograms(b.Schema, b.Programs, p, 1)
				if err != nil {
					return nil, err
				}
				out = append(out, input{b.Schema, odd, &sqlbtp.Source{Dialect: "embedded", Script: p.sql(1), Schema: b.Schema}})
			}
		}
		out = append(out, input{b.Schema, b.Programs, src})
	}
	return out, nil
}

// buildRungs times, per input and over several passes: SQL compile,
// validation and unfolding on a fresh session, Algorithm 1's pair
// derivation on a fresh block set (attr+fk), composing the full graph from
// the warm blocks, and type-II detection.
func (l *ladder) buildRungs(ctx context.Context) error {
	ins, err := l.inputs()
	if err != nil {
		return err
	}
	var allocs []float64
	for pass := range 5 {
		for _, in := range ins {
			req := l.tr.newRequest()
			root := l.tr.begin(req, 0, "ladder.build")
			if in.source != nil {
				if pass == 0 {
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					_, err := sqlbtp.Compile(*in.source)
					runtime.ReadMemStats(&m1)
					if err != nil {
						return err
					}
					allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
				}
				l.tr.leaf(req, root, "sqlbtp.compile", func() { _, err = sqlbtp.Compile(*in.source) })
				if err != nil {
					return err
				}
			}
			sess := analysis.NewSession(in.schema)
			var ltps []*btp.LTP
			l.tr.leaf(req, root, "btp.unfold", func() {
				for _, p := range in.programs {
					var ls []*btp.LTP
					if ls, err = sess.LTPs(p, 0); err != nil {
						return
					}
					ltps = append(ltps, ls...)
				}
			})
			if err != nil {
				return err
			}
			bs := summary.NewBlockSet(in.schema, summary.SettingAttrDepFK)
			l.tr.leaf(req, root, "summary.pairs", func() { err = bs.EnsureCtx(ctx, ltps, 0) })
			if err != nil {
				return err
			}
			var g *summary.Graph
			l.tr.leaf(req, root, "summary.compose", func() { g, err = summary.ComposeCtx(ctx, bs, ltps, 0) })
			if err != nil {
				return err
			}
			l.tr.leaf(req, root, "summary.detect", func() { g.Robust(summary.TypeII) })
			l.tr.end(root)
			if pass == 0 {
				l.counts["btp.ltps"] += float64(len(ltps))
				l.counts["summary.pairs_computed"] += float64(bs.Stats().Misses)
				l.counts["summary.edges"] += float64(g.Stats().Edges)
			}
		}
	}
	l.counts["sqlbtp.compile_allocs"] = quantile(allocs, 0.5)
	return nil
}

// inProcess builds a server with the options the workload gives the child,
// logging to a file as the child does.
func (l *ladder) inProcess(name string, opts server.Options) (*server.Server, func(), error) {
	log, err := os.Create(filepath.Join(l.b.out, "logs", fmt.Sprintf("%s-%s.log", l.w.name, name)))
	if err != nil {
		return nil, nil, err
	}
	opts.Logger = slog.New(slog.NewJSONHandler(log, &slog.HandlerOptions{Level: slog.LevelInfo}))
	opts.MaxConcurrentChecks = 256 // robustserved's default
	opts.MaxWorkloads = l.registryCap()
	var dir string
	if l.w.stateDir || opts.SnapshotFS != nil {
		if dir, err = os.MkdirTemp(l.b.out, "state-"+name+"-"); err != nil {
			log.Close()
			return nil, nil, err
		}
		opts.StateDir = dir
	}
	srv := server.New(opts)
	return srv, func() {
		if err := srv.Close(); err != nil {
			l.rep.noteError(err)
		}
		log.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
	}, nil
}

// replay runs the request script against the child, an in-process server
// and the decomposed pipeline, after bringing the latter two to the
// child's set-up state.
func (l *ladder) replay(ctx context.Context) error {
	srv, closeSrv, err := l.inProcess("inprocess", server.Options{})
	if err != nil {
		return err
	}
	defer closeSrv()
	inproc := handlerTarget(srv.Handler())
	pipe := l.pipe.target()
	l.pipe.tr = newTracer() // the set-up's spans are not measured
	for _, t := range []target{inproc, pipe} {
		for _, s := range l.w.setupSteps(l.b.exp) {
			if _, err := t.run(s); err != nil {
				return fmt.Errorf("ladder setup %s %s: %w", s.method, s.path, err)
			}
		}
	}
	l.pipe.tr = l.tr
	// Cold scripts avoid the child's resident workloads, so every
	// registration is cold on all three targets.
	var stats wire.StatsResponse
	if err := l.getJSON(l.child, "/v1/stats", &stats); err != nil {
		return err
	}
	var resident []string
	for _, ws := range stats.WorkloadStats {
		resident = append(resident, ws.ID)
	}
	before, err := l.resultCache(inproc)
	if err != nil {
		return err
	}
	// Every target gets the same step sequence (patch-churn's PATCH
	// versions follow each target's own); step i runs on all three in
	// turn, so each comparison is between the same request at the same
	// moment.
	targets := []target{inproc, l.child, pipe}
	var scripts [3][]*step
	for i, t := range targets {
		if scripts[i], err = l.script(t, resident); err != nil {
			return err
		}
	}
	l.pairs = map[string][]stepTiming{}
	for i := range scripts[0] {
		var rs [3]result
		failed := false
		for t, tgt := range targets {
			s := scripts[t][i]
			if rs[t], err = tgt.run(s); err != nil {
				l.rep.noteError(fmt.Errorf("ladder %s %s: %w", s.method, s.path, err))
				failed = true
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if failed {
			continue
		}
		op := scripts[0][i].op
		req := l.tr.newRequest()
		now := time.Now()
		l.tr.record(req, 0, "server.handler."+op, now.Add(-rs[0].latency), now)
		l.tr.record(req, 0, "net.loopback."+op, now.Add(-rs[1].latency), now)
		l.pairs[op] = append(l.pairs[op], stepTiming{handler: rs[0].latency, loopback: rs[1].latency, decode: rs[2].decode, work: rs[2].work})
		l.counts["wire.response_bytes.sum"] += float64(len(rs[2].body))
		l.counts["wire.response_bytes.n"]++
	}
	after, err := l.resultCache(inproc)
	if err != nil {
		return err
	}
	if lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses); lookups > 0 {
		l.missFrac = float64(after.Misses-before.Misses) / float64(lookups)
	}
	var pruned, decided uint64
	var bytes int64
	for _, s := range l.pipe.sessions {
		st := s.Stats().Cores
		pruned += st.Pruned
		decided += st.Pruned + st.Misses
	}
	for _, e := range l.pipe.entries {
		bytes += e.sess.SizeBytes()
	}
	l.counts["analysis.pruned_ratio"] = ratio(float64(pruned), float64(decided))
	l.counts["analysis.session_bytes"] = float64(bytes)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *ladder) getJSON(t target, path string, v any) error {
	r, err := t(&step{op: "info", method: http.MethodGet, path: path})
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, r.status)
	}
	return decode(r.body, v)
}

// resultCache sums the subsets result-cache counters of a server.
func (l *ladder) resultCache(t target) (wire.ResultCacheStats, error) {
	var stats wire.StatsResponse
	var sum wire.ResultCacheStats
	if err := l.getJSON(t, "/v1/stats", &stats); err != nil {
		return sum, err
	}
	for _, ws := range stats.WorkloadStats {
		sum.Hits += ws.ResultCache.Hits
		sum.Misses += ws.ResultCache.Misses
	}
	return sum, nil
}

// script is the seeded request sequence the ladder replays on every
// target: the workload's own traffic shapes, covering every handler op.
// Each target gets the same sequence; patch-churn's PATCH versions start
// from the target's current versions.
func (l *ladder) script(t target, resident []string) ([]*step, error) {
	e := l.b.exp
	rng := rand.New(rand.NewPCG(l.seed, 2))
	var steps []*step
	if l.w.name == "cold-analysis" {
		next := coldSequence(coldItems(l.env), resident, rng)
		for range 12 {
			it := next()
			steps = append(steps, it.steps()...)
			if it.workload != "" && len(e.Workloads[it.workload].Programs) <= 5 {
				steps = append(steps, e.streamStep(it.workload, "attr+fk", "type2"))
			}
		}
		return steps, nil
	}
	if l.w.name == "patch-churn" {
		versions := make([]uint64, len(patches))
		for i, p := range patches {
			var info wire.WorkloadStats
			if err := l.getJSON(t, workloadPath(e.Workloads[p.workload].ID, ""), &info); err != nil {
				return nil, err
			}
			versions[i] = info.Version
		}
		for i := range 10 * len(patches) {
			p := patches[i%len(patches)]
			versions[i%len(patches)]++
			steps = append(steps, e.patchStep(p, versions[i%len(patches)]),
				e.subsetsStep(p.workload, pick(rng, settingNames()), "type2"),
				randomCheck(e, p.workload, rng), randomCheck(e, p.workload, rng), randomCheck(e, p.workload, rng))
		}
	}
	var reads []*step
	for range 150 {
		reads = append(reads, randomCheck(e, pick(rng, l.w.benchmarks), rng))
	}
	for range 80 {
		reads = append(reads, e.subsetsStep(pick(rng, l.w.benchmarks), pick(rng, settingNames()), pick(rng, methods)))
	}
	for range 50 {
		reads = append(reads, e.streamStep(pick(rng, l.w.benchmarks), pick(rng, settingNames()), pick(rng, methods)))
	}
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	steps = append(steps, reads...)
	// Registrations go last: re-registering a PATCHed workload resets it
	// to the registered programs.
	for range 30 {
		steps = append(steps, e.registerBenchmarkStep(pick(rng, l.w.benchmarks), false))
	}
	return steps, nil
}

// certifyRung certifies a seeded sample of the workload's minimal
// non-robust cores twice: once through certify.Subset and once stage by
// stage — the witness check, candidate derivation with instantiation
// pre-flight, the interleaving search and the engine replay.
func (l *ladder) certifyRung(ctx context.Context) error {
	e := l.b.exp
	var cores []ExpCore
	for _, c := range e.Cores {
		if l.w.name == "cold-analysis" && c.Setting != "attr+fk" {
			continue // cold-analysis checks under the default setting only
		}
		if l.w.name == "cold-analysis" || slices.Contains(l.w.benchmarks, c.Workload) {
			cores = append(cores, c)
		}
	}
	rng := rand.New(rand.NewPCG(l.seed, 3))
	rng.Shuffle(len(cores), func(i, j int) { cores[i], cores[j] = cores[j], cores[i] })
	// The first certified core leads, so the replay stage is always timed.
	if i := slices.IndexFunc(cores, func(c ExpCore) bool { return c.Status == "certified" }); i > 0 {
		cores[0], cores[i] = cores[i], cores[0]
	}
	deadline := time.Now().Add(l.certifyFor)
	var tried, certified, explored float64
	for i, c := range cores {
		if i >= 2 && time.Now().After(deadline) {
			break
		}
		b, err := benchmarks.ByName(c.Workload, 1)
		if err != nil {
			return err
		}
		var programs []*btp.Program
		for _, n := range c.Programs {
			programs = append(programs, b.Program(n))
		}
		cfg := analysis.Config{Method: summary.TypeII}
		if cfg.Setting, err = wire.ParseSetting(c.Setting); err != nil {
			return err
		}
		sess := analysis.NewSession(b.Schema)
		if _, err := sess.CheckCtx(ctx, programs, cfg); err != nil { // both timings start warm
			return err
		}
		req := l.tr.newRequest()
		var res *certify.Result
		l.tr.leaf(req, 0, "certify.subset", func() {
			res, err = certify.Subset(ctx, sess, cfg, programs, certify.Options{MaxSchedules: e.MaxSchedules})
		})
		if err != nil {
			return err
		}
		if res.Status.String() != c.Status {
			l.rep.noteError(wrong("ladder certify %s %s %v: %s, want %s", c.Workload, c.Setting, c.Programs, res.Status, c.Status))
		}
		tried++
		if res.Status == certify.Certified {
			certified++
		}

		root := l.tr.begin(req, 0, "certify.pipeline")
		var chk *analysis.Result
		l.tr.leaf(req, root, "certify.check", func() { chk, err = sess.CheckCtx(ctx, programs, cfg) })
		if err != nil {
			return err
		}
		var lists [][]enumerate.Instance
		l.tr.leaf(req, root, "certify.candidates", func() { lists = candidates(b.Schema, chk.Witness, cfg, e.MaxSchedules) })
		var found *enumerate.Result
		l.tr.leaf(req, root, "certify.search", func() {
			found, _, err = enumerate.FindAnyCounterexampleCtx(ctx, b.Schema, lists, 0, enumerate.Options{MaxSchedules: e.MaxSchedules})
		})
		if err != nil {
			return err
		}
		explored += float64(found.Explored)
		if found.Found {
			l.tr.leaf(req, root, "certify.replay", func() { _, err = replay.Run(b.Schema, found.Schedule) })
			if err != nil {
				return err
			}
		}
		l.tr.end(root)
	}
	l.counts["certify.explored"] = ratio(explored, tried)
	l.counts["certify.certified_ratio"] = ratio(certified, tried)
	return nil
}

// candidates derives the instance lists certification searches: both
// realization strategies at the witness's multiplicity and widened by one
// instance per program, minus candidates whose instantiation fails.
func candidates(schema *relschema.Schema, w *summary.Witness, cfg analysis.Config, maxSchedules int) [][]enumerate.Instance {
	var out [][]enumerate.Instance
	for _, extra := range []bool{false, true} {
		set, _ := realize.CandidateSets(schema, w, realize.Options{
			MaxSchedules: maxSchedules, ExtraInstances: extra, IgnoreFKs: !cfg.Setting.UseForeignKeys,
		})
		for _, c := range set {
			ok := true
			for id, inst := range c.Instances {
				if _, err := instantiate.Instantiate(schema, inst.LTP, id+1, inst.Assignment); err != nil {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, c.Instances)
			}
		}
	}
	return out
}

// snapshotRung PATCHes SmallBank and TPC-C on an in-process server whose
// snapshot store writes through a counting filesystem: each PATCH's
// synchronous persist is counted in bytes and fsyncs, and the debounced
// write of the result cache a following enumeration dirties is timed
// through Server.Flush (the background flusher is parked so only the
// explicit flush writes).
func (l *ladder) snapshotRung(context.Context) error {
	fs := &countingFS{FS: faultfs.OS{}}
	srv, closeSrv, err := l.inProcess("snapshot", server.Options{SnapshotFS: fs, FlushInterval: time.Hour})
	if err != nil {
		return err
	}
	defer closeSrv()
	e := l.b.exp
	h := handlerTarget(srv.Handler())
	for _, p := range patches {
		full := 1<<len(e.Workloads[p.workload].Programs) - 1
		for _, s := range []*step{e.registerBenchmarkStep(p.workload, false), e.checkStep(p.workload, full, "attr+fk", "type2")} {
			if _, err := h.run(s); err != nil {
				return fmt.Errorf("snapshot rung setup: %w", err)
			}
		}
	}
	const rounds = 8
	var bytes, fsyncs int64
	for i := range rounds {
		p := patches[i%len(patches)]
		b0, f0 := fs.bytes.Load(), fs.fsyncs()
		if _, err := h.run(e.patchStep(p, uint64(i/len(patches)+1))); err != nil {
			return fmt.Errorf("snapshot rung: %w", err)
		}
		bytes += fs.bytes.Load() - b0
		fsyncs += fs.fsyncs() - f0
		if _, err := h.run(e.subsetsStep(p.workload, "attr+fk", "type2")); err != nil {
			return fmt.Errorf("snapshot rung: %w", err)
		}
		l.tr.leaf(l.tr.newRequest(), 0, "snapshot.flush", srv.Flush)
	}
	l.counts["snapshot.bytes_per_patch"] = float64(bytes) / rounds
	l.counts["snapshot.fsyncs_per_patch"] = float64(fsyncs) / rounds
	return nil
}

// metrics assembles the per-layer metrics in BENCHMARK.json order.
func (l *ladder) metrics(samples []sample, shed float64) []Metric {
	tr := l.tr
	us := func(name string) Metric {
		d := tr.durations(name)
		return Metric{Value: quantile(d, 0.5), Unit: "us", N: len(d)}
	}
	ms := func(name string) Metric {
		m := us(name)
		m.Value, m.Unit = m.Value/1000, "ms"
		return m
	}
	count := func(name string) Metric { return Metric{Value: l.counts[name], Unit: "count", N: 1} }
	ratioOf := func(v float64) Metric { return Metric{Value: v, Unit: "ratio", N: 1} }

	st := l.rep.Stats
	var blockHits, blockMisses, rcHits, rcMisses uint64
	for _, ws := range st.WorkloadStats {
		blockHits += ws.Cache.Hits
		blockMisses += ws.Cache.Misses
		rcHits += ws.ResultCache.Hits
		rcMisses += ws.ResultCache.Misses
	}
	out := map[string]Metric{
		"sqlbtp.compile_us":             us("sqlbtp.compile"),
		"sqlbtp.compile_allocs":         count("sqlbtp.compile_allocs"),
		"btp.unfold_us":                 us("btp.unfold"),
		"btp.ltps":                      count("btp.ltps"),
		"summary.pairs_us":              us("summary.pairs"),
		"summary.pairs_computed":        count("summary.pairs_computed"),
		"summary.compose_us":            us("summary.compose"),
		"summary.detect_us":             us("summary.detect"),
		"summary.edges":                 count("summary.edges"),
		"summary.block_hit_ratio":       ratioOf(ratio(float64(blockHits), float64(blockHits+blockMisses))),
		"analysis.check_us":             us("analysis.check"),
		"analysis.subsets_us":           us("analysis.subsets"),
		"analysis.ttfv_us":              us("analysis.first_verdict"),
		"analysis.pruned_ratio":         ratioOf(l.counts["analysis.pruned_ratio"]),
		"analysis.session_bytes":        {Value: l.counts["analysis.session_bytes"], Unit: "bytes", N: 1},
		"certify.subset_ms":             ms("certify.subset"),
		"certify.candidates_us":         us("certify.candidates"),
		"certify.search_ms":             ms("certify.search"),
		"certify.replay_us":             us("certify.replay"),
		"certify.explored":              count("certify.explored"),
		"certify.certified_ratio":       ratioOf(l.counts["certify.certified_ratio"]),
		"wire.decode_us":                us("wire.decode"),
		"wire.encode_us":                us("wire.encode"),
		"wire.response_bytes":           {Value: ratio(l.counts["wire.response_bytes.sum"], l.counts["wire.response_bytes.n"]), Unit: "bytes", N: int(l.counts["wire.response_bytes.n"])},
		"server.result_cache_hit_ratio": ratioOf(ratio(float64(rcHits), float64(rcHits+rcMisses))),
		"server.evictions":              {Value: float64(st.Evictions + st.EvictionsBytes), Unit: "count", N: 1},
		"server.shed_total":             {Value: shed, Unit: "count", N: 1},
		"snapshot.flush_ms":             ms("snapshot.flush"),
		"snapshot.bytes_per_patch":      {Value: l.counts["snapshot.bytes_per_patch"], Unit: "bytes", N: 8},
		"snapshot.fsyncs_per_patch":     {Value: l.counts["snapshot.fsyncs_per_patch"], Unit: "count", N: 8},
		"trace.overhead_pct":            {Value: overheadPct(samples), Unit: "%", N: len(samples)},
	}
	for _, op := range handlerOps {
		ps := l.pairs[op]
		var handler, loopback, unattributed []float64
		for _, p := range ps {
			h := durUS(p.handler)
			work := durUS(p.work)
			if op == "subsets" {
				work *= l.missFrac // result-cache hits run neither the engine nor the encoder
			}
			handler = append(handler, h)
			loopback = append(loopback, durUS(p.loopback)-h)
			unattributed = append(unattributed, (h-durUS(p.decode)-work)/h)
		}
		out["server.handler_us."+op] = Metric{Value: quantile(handler, 0.5), Unit: "us", N: len(ps)}
		out["net.loopback_us."+op] = Metric{Value: quantile(loopback, 0.5), Unit: "us", N: len(ps)}
		out["server.unattributed_share."+op] = Metric{Value: quantile(unattributed, 0.5), Unit: "ratio", N: len(ps)}
	}
	var metrics []Metric
	for _, name := range perLayerNames() {
		m := out[name]
		m.Name = name
		metrics = append(metrics, m)
	}
	return metrics
}

// overheadPct compares the load phase's throughput in untraced and traced
// windows: the share of throughput lost to recording spans.
func overheadPct(samples []sample) float64 {
	var traced, untraced float64
	var end time.Duration
	for _, s := range samples {
		if s.traced {
			traced++
		} else {
			untraced++
		}
		end = max(end, s.start)
	}
	// Windows alternate untraced, traced, ...; count each kind's time.
	var tTime, uTime time.Duration
	for w := time.Duration(0); w < end; w += traceWindow {
		d := min(traceWindow, end-w)
		if (w/traceWindow)%2 == 1 {
			tTime += d
		} else {
			uTime += d
		}
	}
	if tTime == 0 || uTime == 0 || untraced == 0 {
		return 0
	}
	u, t := untraced/uTime.Seconds(), traced/tTime.Seconds()
	return (u - t) / u * 100
}
