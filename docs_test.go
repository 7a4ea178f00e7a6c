package mvrc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documentation entry points whose relative links the CI
// doc-link gate keeps honest.
var docFiles = []string{"README.md", "docs/ARCHITECTURE.md", "docs/SQL.md", "ROADMAP.md", "CHANGES.md"}

// mdLink matches markdown link targets; URL schemes and intra-page anchors
// are filtered out below.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinks fails when README/ARCHITECTURE (or the other tracked docs)
// reference repository files that do not exist — the doc-link gate run by
// CI. Each link is resolved relative to the directory of the file that
// contains it, exactly as GitHub and local markdown viewers resolve it.
func TestDocLinks(t *testing.T) {
	for _, f := range docFiles {
		raw, err := os.ReadFile(f)
		if err != nil {
			if os.IsNotExist(err) && f != "README.md" {
				continue
			}
			t.Fatalf("read %s: %v", f, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(f), target)); err != nil {
				t.Errorf("%s links to %q, which does not exist relative to %s",
					f, m[1], filepath.Dir(f))
			}
		}
	}
}

// TestDocsMentionCode spot-checks that the architecture doc stays anchored
// to real identifiers: every code symbol it names as load-bearing must
// appear in the doc and still exist in the tree — as a whole word in some
// Go file outside bench/, a flag without its leading "-" and a pkg.Name or
// Type.Method pin by its last component (cheap drift detection alongside
// the link gate).
func TestDocsMentionCode(t *testing.T) {
	raw, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md must exist (it is linked from README): %v", err)
	}
	doc := string(raw)
	var code strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && path != "docs_test.go":
			src, err := os.ReadFile(path)
			code.Write(src)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	src := code.String()
	for _, want := range []string{
		"BlockSet", "Compose", "RobustWitness", "EnsureCtx",
		"RobustSubsets", "Parallelism",
		"NaiveRobustSubsets",
		"internal/snapshot", "SizeBytes", "result_cache",
		"-state-dir", "-max-bytes", "evictions_bytes",
		"seedWalk", "mergeWalk", "subsets_pruned",
		"TestLatticeFactDigest", "TestStatsMetricsParity",
		"MaxSubsetPrograms", "too_many_programs", "TestWalkRandomWorkloads",
		"MaxUnfoldBound", "unfold_bound_too_large", "body_too_large",
		"-flush-interval", "Server.Flush",
		"RobustSubsetsStream", "subsets:stream", "first_non_robust",
		"StreamSummary", "streamed_requests", "TestCoresPersistAcrossRestart",
		"MaxSubsets", "StreamVerdictRecord",
		"mvrc_phase_duration_seconds", "mvrc_http_requests_total",
		"obs.Tracer", "WithTracer", "X-Request-ID", "debug=timings",
		"-pprof-addr", "stats_generation", "PreCollect",
		"first_verdict", "snapshot_flush",
		"internal/certify", "certify.Subset", "CertifyCore",
		"Certificate.Verify", "certified_cores", "unrealized_candidates",
		"WriteOrderRespectsLifecycle", "RandomBTPs",
		"FuzzRandomWorkloadSoundness", "FuzzCertifyRoundTrip",
		"FuzzSnapshotDecode", "-certify", "max_schedules",
		"internal/sqlbtp/ir", "dialect/postgres", ":fromSQL",
		"ParseError", "snapshot.Fingerprint", "FuzzDialectParse",
		"BenchmarkSQLCompile", "@reads",
		"internal/faultfs", "faultfs.Injector", "Injector.Crash",
		"TornBytes", "TestChaosKill9Cycles",
		"mvrc_snapshot_retries_total", "mvrc_snapshot_degraded",
		"/healthz/ready", "BeginDrain",
		"-max-concurrent-checks", "Retry-After", "mvrc_shed_requests_total",
		"-request-timeout", "PanicError", "mvrc_panics_total",
		"BenchmarkServerOverhead", "TestAdmissionZeroAlloc",
		"TestNilTracerZeroAllocOverhead",
		"MaxRequestSchedules", "max_schedules_too_large",
		"MemProfileRate", "MaxBenchmarkN", "n_too_large", "FuzzServerRequests",
		"FuzzComposeMatchesBuild", "TestColdComposeAllocsPerLTP",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("ARCHITECTURE.md no longer mentions %q — update the doc with the code", want)
		}
		name := strings.TrimPrefix(want, "-")
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		if !containsWord(src, name) {
			t.Errorf("ARCHITECTURE.md pins %q, but no Go file outside bench/ contains %q — update the doc with the code", want, name)
		}
	}
}

// containsWord reports whether s contains w with no identifier character
// on either side, so a pin cannot hide inside a longer identifier.
func containsWord(s, w string) bool {
	ident := func(c byte) bool {
		return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
	}
	for i := 0; ; {
		j := strings.Index(s[i:], w)
		if j < 0 {
			return false
		}
		j += i
		if end := j + len(w); (j == 0 || !ident(s[j-1])) && (end == len(s) || !ident(s[end])) {
			return true
		}
		i = j + 1
	}
}
