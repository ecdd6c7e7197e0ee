// Command afdx-conformance runs the cross-engine conformance oracle: it
// generates a family of synthetic AFDX configurations, checks the full
// invariant lattice on each (simulated ≤ achievable ≤ analytic bounds,
// combined = per-path minimum, grouping never loosens, contract
// tightening never loosens, parallel runs bit-identical to
// sequential), and shrinks every violation to a minimal reproducing
// configuration.
//
// Usage:
//
//	afdx-conformance -n 500 -seed 1             # 500 configs, text summary
//	afdx-conformance -n 500 -json > report.json # machine-readable report
//	afdx-conformance -budget 30s -n 100000      # as many as fit the budget
//	afdx-conformance -corpus testdata           # write shrunk repros
//
// With -json, stdout carries exactly one JSON document — the human
// summary moves to stderr so `afdx-conformance -json | jq` works even
// when violations are found. The shared observability flags
// (-metrics, -tracefile, -spantree, -cpuprofile, -memprofile, -trace;
// see internal/obs/cliobs) trace the campaign as a span tree
// (campaign → config:<i> → engine) and collect every engine's
// counters.
//
// Exit codes, for scripted callers:
//
//	0  every checked configuration satisfied every invariant
//	1  at least one invariant violation
//	2  usage error (including a non-positive -n or a negative -budget)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"afdx/internal/conformance"
	"afdx/internal/obs/cliobs"
)

const (
	exitOK        = 0
	exitViolation = 1
	exitUsage     = 2
)

// sess flushes the observability artifacts on every exit path.
var sess *cliobs.Session

func main() {
	log.SetFlags(0)
	log.SetPrefix("afdx-conformance: ")
	var (
		n         = flag.Int("n", 100, "number of configurations to generate and check")
		seed      = flag.Int64("seed", 1, "campaign seed (same seed, same configuration family)")
		parallelN = flag.Int("parallel", 0, "configurations checked concurrently (0 = all CPUs, 1 = sequential; the report is identical either way)")
		budget    = flag.Duration("budget", 0, "wall-time budget; new configurations stop being scheduled once exceeded (0 = none)")
		corpus    = flag.String("corpus", "", "directory receiving shrunk reproducing configurations (empty = don't write)")
		jsonOut   = flag.Bool("json", false, "emit the full JSON report on stdout")
		quiet     = flag.Bool("quiet", false, "suppress the per-violation lines (summary only)")
		fault     = flag.String("fault", "", "inject an engine fault for oracle self-tests: nc-optimistic | traj-optimistic")
		served    = flag.Bool("served", false, "also check the served-parity tier: replay a seeded delta script through a live afdx-serve instance and compare against cold runs")
	)
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	if *n <= 0 {
		log.Printf("-n must be positive, got %d", *n)
		os.Exit(exitUsage)
	}
	if *budget < 0 {
		log.Printf("-budget must be non-negative, got %v", *budget)
		os.Exit(exitUsage)
	}
	if *parallelN < 0 {
		log.Printf("-parallel must be non-negative, got %d", *parallelN)
		os.Exit(exitUsage)
	}
	if flag.NArg() > 0 {
		log.Printf("unexpected arguments %v", flag.Args())
		os.Exit(exitUsage)
	}
	var err error
	if sess, err = obsFlags.Start(); err != nil {
		log.Print(err)
		os.Exit(exitUsage)
	}

	opts := conformance.Options{
		N:         *n,
		Seed:      *seed,
		Parallel:  *parallelN,
		Budget:    *budget,
		CorpusDir: *corpus,
	}
	if *served {
		o := conformance.NewOracle()
		o.Served = true
		opts.Oracle = o
	}
	switch *fault {
	case "":
	case "nc-optimistic":
		opts.Oracle = conformance.FaultyOracle(conformance.FaultNCOptimistic)
	case "traj-optimistic":
		opts.Oracle = conformance.FaultyOracle(conformance.FaultTrajectoryOptimistic)
	default:
		log.Printf("unknown -fault %q (want nc-optimistic or traj-optimistic)", *fault)
		sess.Exit(exitUsage)
	}

	start := time.Now()
	rep, err := conformance.RunCtx(sess.Context(), opts)
	if err != nil {
		log.Print(err)
		sess.Exit(exitUsage)
	}

	// Human-readable output goes to stdout in text mode and to stderr
	// in JSON mode, keeping the -json stdout a single pure JSON
	// document for piped consumers.
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Print(err)
			sess.Exit(exitUsage)
		}
	} else if !*quiet {
		for _, v := range rep.Verdicts {
			for _, viol := range v.Violations {
				fmt.Fprintf(human, "config %d (seed %d, %d VLs): %s\n", v.Index, v.Seed, v.VLs, viol)
			}
			if v.ShrunkFile != "" {
				fmt.Fprintf(human, "config %d: shrunk to %d VL(s): %s\n", v.Index, v.ShrunkVLs, v.ShrunkFile)
			}
		}
	}
	if !*quiet || !*jsonOut {
		fmt.Fprintf(human, "checked %d/%d configuration(s) (%d skipped by budget) in %.1fs (%.1f configs/s): %d violation(s) on %d configuration(s)\n",
			rep.Checked, rep.N, rep.Skipped, time.Since(start).Seconds(), rep.ConfigsPerSec, rep.NumViolations, rep.Violating)
		if invs := rep.FailingInvariants(); len(invs) > 0 {
			fmt.Fprintf(human, "violated invariants: %v\n", invs)
		}
	}
	if !rep.Clean() {
		sess.Exit(exitViolation)
	}
	sess.Exit(exitOK)
}
