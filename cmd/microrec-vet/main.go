// Command microrec-vet is the repo's custom multichecker: it runs the five
// microrec-specific analyzers — lockheld, hotalloc, atomicfield,
// statsnapshot, deadexport — over the packages named on the command line
// (default ./...) and exits non-zero if any invariant is violated. It is
// wired into `make vet-custom` (part of `make ci`) and the CI lint job, so
// the concurrency and zero-alloc properties the datapath depends on are
// machine-checked on every commit instead of re-proven in review, and an
// internal export that only tests call cannot creep back in.
//
// Usage:
//
//	microrec-vet [-list] [packages]
//
// Findings print in the standard file:line:col form. A deliberate
// violation is suppressed in source with //microrec:allow <analyzer> on
// the reported line.
//
// microrec-vet analyses the build it was itself built for: run as
// `go run -tags noasm ./cmd/microrec-vet ./...` it loads the noasm files
// (quantize_noasm.go, prefetch_other.go) in place of the files they replace.
// A file no build of the host compiles is analysed by no pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"

	"microrec/internal/analysis"
	"microrec/internal/analysis/atomicfield"
	"microrec/internal/analysis/deadexport"
	"microrec/internal/analysis/hotalloc"
	"microrec/internal/analysis/lockheld"
	"microrec/internal/analysis/statsnapshot"
)

var analyzers = []*analysis.Analyzer{
	lockheld.Analyzer,
	hotalloc.Analyzer,
	atomicfield.Analyzer,
	statsnapshot.Analyzer,
	deadexport.Analyzer,
}

// buildTags returns the build tags this binary was built with (go build's
// -tags, recorded in its build info).
func buildTags() []string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" && s.Value != "" {
				return strings.Split(s.Value, ",")
			}
		}
	}
	return nil
}

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: microrec-vet [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(".", buildTags(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "microrec-vet:", err)
		os.Exit(1)
	}
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "microrec-vet:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		pos := d.Position(prog.Fset)
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer.Name, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
