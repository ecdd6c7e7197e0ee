// Command afdx-lint statically analyses AFDX configuration files and
// reports coded diagnostics (AFDX001..AFDX013): port stability, routing
// loops, ARINC 664 contract violations, multicast-tree well-formedness,
// end-system jitter budgets, deadline feasibility, and more — every
// infeasibility the delay engines would reject, caught in microseconds
// before an analysis is launched.
//
// Usage:
//
//	afdx-lint -config net.json                 # human-readable report
//	afdx-lint -format json net.json            # machine-readable
//	afdx-lint -format sarif net.json > l.sarif # for CI code scanners
//	afdx-lint -relaxed -headroom 0.8 a.json b.json
//	afdx-lint -rules                           # list analyzers and exit
//
// Exit code: 0 when every file is clean, 1 when the worst finding is a
// warning, 2 when any file has errors (or cannot be read or decoded) or
// a threshold flag is not a number in (0, 1].
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"afdx"
	"afdx/internal/obs/cliobs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("afdx-lint: ")
	var (
		config   = flag.String("config", "", "network configuration JSON (or pass files as arguments)")
		relaxed  = flag.Bool("relaxed", false, "relax ARINC 664 contract validation (sweep values become warnings)")
		format   = flag.String("format", "text", "output format: text | json | sarif")
		headroom = flag.Float64("headroom", 0.95, "port-utilization fraction above which a warning is emitted")
		budget   = flag.Float64("link-budget", 0.75, "link admission budget: AFDX013 warns when a link's contracted rate exceeds this fraction of the link rate")
		rules    = flag.Bool("rules", false, "list the registered analyzers with their codes and exit")
	)
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	sess, err := obsFlags.Start()
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	for _, f := range []struct {
		name string
		v    float64
	}{{"headroom", *headroom}, {"link-budget", *budget}} {
		if !(f.v > 0 && f.v <= 1) {
			log.Printf("-%s must be a number in (0, 1], got %v", f.name, f.v)
			sess.Exit(2)
		}
	}

	if *rules {
		for _, a := range afdx.LintAnalyzers() {
			fmt.Printf("%s %-15s %s\n", a.Code, a.Name, a.Doc)
		}
		sess.Exit(0)
	}

	files := flag.Args()
	if *config != "" {
		files = append([]string{*config}, files...)
	}
	if len(files) == 0 {
		flag.Usage()
		sess.Exit(2)
	}

	opts := afdx.DefaultLintOptions()
	opts.UtilizationHeadroom = *headroom
	opts.LinkUtilizationWarn = *budget
	if *relaxed {
		opts.Mode = afdx.Relaxed
	}

	worst := 0
	for _, path := range files {
		code, err := lintFile(path, opts, *format, len(files) > 1)
		if err != nil {
			log.Printf("%s: %v", path, err)
			code = 2
		}
		if code > worst {
			worst = code
		}
	}
	sess.Exit(worst)
}

// lintFile lints one configuration file and returns its exit code.
func lintFile(path string, opts afdx.LintOptions, format string, banner bool) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 2, err
	}
	defer f.Close()
	net, err := afdx.DecodeJSON(f)
	if err != nil {
		// Undecodable input is reported under the reserved parse code so
		// scripted consumers see a uniform diagnostic stream.
		return 2, fmt.Errorf("[%s] %v", "AFDX000", err)
	}
	rep := afdx.Lint(net, opts)
	if banner && format == "text" {
		fmt.Printf("== %s\n", path)
	}
	switch format {
	case "text":
		err = rep.WriteText(os.Stdout)
	case "json":
		err = rep.WriteJSON(os.Stdout)
	case "sarif":
		err = rep.WriteSARIF(os.Stdout, path)
	default:
		return 2, fmt.Errorf("unknown format %q (want text, json or sarif)", format)
	}
	if err != nil {
		return 2, err
	}
	return rep.ExitCode(), nil
}
