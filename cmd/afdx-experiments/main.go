// Command afdx-experiments regenerates the tables and figures of the
// paper's evaluation section.
//
// Usage:
//
//	afdx-experiments                # run everything, in paper order
//	afdx-experiments -exp table1    # one experiment
//	afdx-experiments -list          # list experiment IDs
//	afdx-experiments -seed 7        # different synthetic configuration
//
// Both configurations the experiments analyse (the paper's Figure 2
// sample and the seeded synthetic industrial network) are linted before
// anything runs; lint errors abort with exit code 3 (bypass with
// -no-lint), warnings go to stderr. An unknown flag or experiment ID is
// a usage error (exit 2); a failing experiment exits 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"afdx"
	"afdx/internal/experiments"
	"afdx/internal/obs/cliobs"
)

// sess flushes the observability artifacts on every exit path.
var sess *cliobs.Session

func main() {
	log.SetFlags(0)
	log.SetPrefix("afdx-experiments: ")
	var (
		exp       = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		seed      = flag.Int64("seed", 1, "seed of the synthetic industrial configuration")
		parallelN = flag.Int("parallel", 0, "analysis worker count (0 = all CPUs, 1 = sequential; tables are identical either way)")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		noLint    = flag.Bool("no-lint", false, "skip the lint pre-flight gate")
	)
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	if *parallelN < 0 {
		log.Printf("-parallel must be non-negative, got %d", *parallelN)
		os.Exit(2)
	}
	var err error
	if sess, err = obsFlags.Start(); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		sess.Exit(0)
	}
	exps := experiments.All()
	if *exp != "all" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			log.Printf("unknown experiment %q (use -list)", *exp)
			sess.Exit(2)
		}
		exps = []experiments.Experiment{e}
	}
	if !*noLint {
		preflight(*seed)
	}
	cfg := experiments.Config{Seed: *seed, Parallel: *parallelN, Ctx: sess.Context()}
	for _, e := range exps {
		fmt.Printf("=== %s: %s ===\n\n", e.ID, e.Title)
		if err := e.Run(os.Stdout, cfg); err != nil {
			log.Printf("%s: %v", e.ID, err)
			sess.Exit(1)
		}
		fmt.Println()
	}
	sess.Exit(0)
}

// preflight lints the two configurations the experiments analyse.
// Errors abort (exit 3); warnings go to stderr so the reproduced
// tables on stdout stay byte-comparable.
func preflight(seed int64) {
	industrial, err := afdx.Generate(afdx.DefaultGeneratorSpec(seed))
	if err != nil {
		log.Printf("generating the industrial configuration: %v", err)
		sess.Exit(1)
	}
	for _, net := range []*afdx.Network{afdx.Figure2Config(), industrial} {
		rep := afdx.Lint(net, afdx.DefaultLintOptions())
		for _, d := range rep.Diagnostics {
			if d.Severity == afdx.SeverityWarning {
				fmt.Fprintf(os.Stderr, "afdx-experiments: lint: [%s] %s\n", net.Name, d)
			}
		}
		if rep.HasErrors() {
			fmt.Fprintf(os.Stderr, "afdx-experiments: %s: infeasible configuration (use -no-lint to bypass):\n", net.Name)
			rep.WriteText(os.Stderr)
			sess.Exit(3)
		}
	}
}
