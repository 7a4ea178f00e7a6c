package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
)

// BuildInfo attributes a running binary to its build: module version, VCS
// revision (with a "-dirty" suffix for modified trees), and Go toolchain.
// Fields degrade to "unknown" outside module-aware builds (plain `go test`
// binaries, stripped builds).
type BuildInfo struct {
	Version   string
	Revision  string
	GoVersion string
}

// Build reads the binary's embedded build information once per call.
func Build() BuildInfo {
	bi := BuildInfo{
		Version:   "unknown",
		Revision:  "unknown",
		GoVersion: runtime.Version(),
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if v := info.Main.Version; v != "" {
		bi.Version = v
	}
	var revision string
	var modified bool
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if revision != "" {
		if modified {
			revision += "-dirty"
		}
		bi.Revision = revision
	}
	return bi
}

// PrintVersion writes the one-line -version output shared by every CLI in
// cmd/, so benchmark results and deployed binaries are attributable to a
// commit.
func PrintVersion(w io.Writer, name string) {
	bi := Build()
	fmt.Fprintf(w, "%s %s (revision %s, %s)\n", name, bi.Version, bi.Revision, bi.GoVersion)
}
