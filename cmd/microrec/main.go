// Command microrec is the CLI for the MicroRec reproduction: it regenerates
// the paper's tables and figures, inspects placement plans, runs ad-hoc
// inference, and serves predictions over HTTP.
//
// Usage:
//
//	microrec exp <name|all> [-items N] [-csv]     regenerate tables/figures
//	microrec plan -model small|large [...]        run the placement search
//	microrec infer -model small -n 16 [...]       run the engine on queries
//	microrec serve -addr :8080 -model small       HTTP inference server
//	microrec loadtest -sla 25ms                   open-loop sweep: knee + tail under overload
//	microrec smoke -addr http://localhost:8080    drive traffic, validate /metrics + /trace
//	microrec version                              build provenance (revision, toolchain, kernels)
//	microrec list                                 list available experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"microrec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "microrec:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no command given")
	}
	switch args[0] {
	case "exp":
		return cmdExp(args[1:])
	case "plan":
		return cmdPlan(args[1:])
	case "infer":
		return cmdInfer(args[1:])
	case "spec":
		return cmdSpec(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "loadtest":
		return cmdLoadtest(args[1:])
	case "version":
		return cmdVersion(args[1:])
	case "smoke":
		return cmdSmoke(args[1:])
	case "kernels":
		// Which optimized datapath kernels this binary selected at init —
		// the provenance string loadtest documents record. "portable"
		// means the pure-Go reference path (noasm build, or no CPU support).
		fmt.Println(microrec.KernelFeatures())
		return nil
	case "list":
		return cmdList()
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `microrec - MicroRec (MLSys'21) reproduction

commands:
  exp <name|all>   regenerate a paper table/figure (see 'microrec list')
  plan             run the table-combination + allocation search
  infer            run the engine on synthetic queries + the modelled FPGA timing
  serve            start an HTTP inference server (scale with -replicas/-route
                   across replicas)
  loadtest         open-loop load sweep: find the knee (max qps meeting the
                   SLA), drive past it, emit a JSON report
  kernels          print which optimized datapath kernels this build selected
  version          print build provenance (git revision, Go toolchain, kernels)
  trace            export a chrome://tracing trace — simulated pipeline timing
                   by default, or real request spans with -live (GET /trace)
  smoke            drive traffic at a running server and validate its
                   /metrics and /trace telemetry (CI observability check)
  spec             print a model specification
  list             list available experiments

`)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}
