package obs

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo is the build/version provenance record: which commit, toolchain
// and kernel dispatch produced a binary's numbers. It appears in /stats,
// /metrics (as an info gauge), the `version` subcommand and the loadtest
// report, so two perf documents can be compared like for like.
type BuildInfo struct {
	// Revision is the VCS commit the binary was built from; "unknown" when
	// the build carried no VCS stamp (go test binaries, source archives).
	Revision string `json:"revision"`
	// Dirty marks a build from a modified working tree.
	Dirty bool `json:"dirty,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Kernels records which optimized datapath kernels the build selected at
	// init ("portable" under the noasm tag or without CPU support).
	Kernels string `json:"kernels,omitempty"`
}

// ReadBuild assembles the build provenance from the binary's embedded build
// info plus the caller-supplied kernel dispatch string (obs cannot import the
// kernels package — it must stay a leaf).
func ReadBuild(kernels string) BuildInfo {
	bi := BuildInfo{
		Revision:  "unknown",
		GoVersion: runtime.Version(),
		Kernels:   kernels,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.GoVersion != "" {
			bi.GoVersion = info.GoVersion
		}
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				if s.Value != "" {
					bi.Revision = s.Value
				}
			case "vcs.modified":
				bi.Dirty = s.Value == "true"
			}
		}
	}
	return bi
}
