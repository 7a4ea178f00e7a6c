package mvrc

import (
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
// still exist in the tree (cheap drift detection alongside the link gate).
func TestDocsMentionCode(t *testing.T) {
	raw, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("docs/ARCHITECTURE.md must exist (it is linked from README): %v", err)
	}
	doc := string(raw)
	for _, want := range []string{
		"BlockSet", "Compose", "RobustWitness", "EnsureCtx",
		"RobustSubsets", "Parallelism",
		"NaiveRobustSubsets", "last_parallelism",
		"internal/snapshot", "SizeBytes", "result_cache",
		"-state-dir", "-max-bytes", "evictions_bytes",
		"CoreSet", "CoverSet", "subsets_pruned",
		"MaxSubsetPrograms", "too_many_programs", "TestWalkRandomWorkloads",
		"MaxUnfoldBound", "unfold_bound_too_large", "body_too_large",
		"-flush-interval", "Server.Flush",
		"RobustSubsetsStream", "subsets:stream", "first_non_robust",
		"StreamSummary", "streamed_requests", "sched_checked",
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
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("ARCHITECTURE.md no longer mentions %q — update the doc with the code", want)
		}
	}
}
