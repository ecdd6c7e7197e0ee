// Command afdx-gen generates a synthetic industrial-scale AFDX
// configuration with the statistics of the paper's Airbus network and
// writes it as JSON.
//
// Usage:
//
//	afdx-gen -seed 1 -out industrial.json
//	afdx-gen -seed 1 -vls 200 -switches 4 -es-per-switch 6 -out small.json
//
// A negative or non-finite -vls, -switches, -es-per-switch or
// -max-utilization, and a -max-utilization above 1, are usage errors
// (exit 2, nothing written); 0 keeps the default.
//
// The shared observability flags (-cpuprofile, -memprofile, -trace,
// -metrics, -tracefile, -spantree; see internal/obs/cliobs) are
// accepted for uniformity with the analysis commands; generation
// itself registers no engine metrics.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"afdx"
	"afdx/internal/obs/cliobs"
)

// sess flushes the observability artifacts on every exit path.
var sess *cliobs.Session

// fatal prints the error and exits through the observability session.
func fatal(v ...any) {
	log.Print(v...)
	sess.Exit(1)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("afdx-gen: ")
	var (
		seed      = flag.Int64("seed", 1, "generator seed (same seed, same network)")
		out       = flag.String("out", "", "output file (default: stdout)")
		vls       = flag.Int("vls", 0, "override the number of VLs")
		switches  = flag.Int("switches", 0, "override the number of switches")
		esPerSw   = flag.Int("es-per-switch", 0, "override end systems per switch")
		maxUtil   = flag.Float64("max-utilization", 0, "override the admission ceiling, in (0, 1]")
		quiet     = flag.Bool("quiet", false, "do not print the configuration statistics")
		dot       = flag.Bool("dot", false, "emit Graphviz DOT topology instead of JSON")
		redundant = flag.Bool("redundant", false, "mirror into the dual A/B network (ARINC 664 redundancy)")
	)
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	for _, f := range []struct {
		name string
		v    float64
	}{{"vls", float64(*vls)}, {"switches", float64(*switches)}, {"es-per-switch", float64(*esPerSw)}, {"max-utilization", *maxUtil}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			log.Printf("-%s must be a finite non-negative number, got %v", f.name, f.v)
			os.Exit(2)
		}
	}
	if *maxUtil > 1 {
		log.Printf("-max-utilization must be at most 1, got %v", *maxUtil)
		os.Exit(2)
	}
	var err error
	if sess, err = obsFlags.Start(); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	spec := afdx.DefaultGeneratorSpec(*seed)
	if *vls > 0 {
		spec.NumVLs = *vls
	}
	if *switches > 0 {
		spec.NumSwitches = *switches
	}
	if *esPerSw > 0 {
		spec.ESPerSwitch = *esPerSw
	}
	if *maxUtil > 0 {
		spec.MaxUtilization = *maxUtil
	}
	net, err := afdx.Generate(spec)
	if err != nil {
		fatal(err)
	}
	if *redundant {
		net, err = afdx.Mirror(net)
		if err != nil {
			fatal(err)
		}
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, net.ComputeStats())
		if err := net.ValidateESJitter(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		}
	}
	if *dot {
		if err := net.WriteDOT(os.Stdout); err != nil {
			fatal(err)
		}
		sess.Exit(0)
	}
	if *out == "" {
		if err := net.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		sess.Exit(0)
	}
	if err := net.SaveJSON(*out); err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	sess.Exit(0)
}
