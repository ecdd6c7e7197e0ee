// Command afdx-exact searches for worst achievable end-to-end delays by
// exploring source emission offsets with the simulator (grid phase plus
// coordinate-descent refinement), and relates them to the analytic
// bounds: the WCNC bound and the certified Best of afdx.Certify, each
// with its bound/achievable ratio. A Best/achievable ratio below 1 is a
// witness that the certified bound is unsound on that path. Exponential
// in the number of VLs: intended for small configurations such as the
// paper's Figure 2.
//
// Usage:
//
//	afdx-exact -config sample.json -grid-us 500 -refine 12
//
// A negative or non-finite -grid-us, a negative -refine or a
// non-positive -max-combos is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"afdx"
	"afdx/internal/obs/cliobs"
	"afdx/internal/report"
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
	log.SetPrefix("afdx-exact: ")
	var (
		config  = flag.String("config", "", "network configuration JSON (required)")
		gridUs  = flag.Float64("grid-us", 0, "grid step in us (default: BAG/8 per VL)")
		refine  = flag.Int("refine", 10, "refinement rounds")
		maxComb = flag.Int("max-combos", 1_000_000, "grid enumeration budget")
		relaxed = flag.Bool("relaxed", false, "relax ARINC 664 contract validation")
	)
	obsFlags := cliobs.Register(flag.CommandLine)
	flag.Parse()
	if *config == "" {
		flag.Usage()
		os.Exit(2)
	}
	// -grid-us 0 selects BAG/8 and -refine 0 skips refinement; negative
	// or non-finite values, and an empty enumeration budget, are usage
	// errors.
	if !(*gridUs >= 0) || math.IsInf(*gridUs, 1) {
		log.Printf("-grid-us must be a finite non-negative number, got %v", *gridUs)
		os.Exit(2)
	}
	if *refine < 0 {
		log.Printf("-refine must be non-negative, got %d", *refine)
		os.Exit(2)
	}
	if *maxComb <= 0 {
		log.Printf("-max-combos must be positive, got %d", *maxComb)
		os.Exit(2)
	}
	var err error
	if sess, err = obsFlags.Start(); err != nil {
		log.Print(err)
		os.Exit(2)
	}
	ctx := sess.Context()
	mode := afdx.Strict
	if *relaxed {
		mode = afdx.Relaxed
	}
	net, err := afdx.LoadJSON(*config, mode)
	if err != nil {
		fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, mode)
	if err != nil {
		fatal(err)
	}
	opts := afdx.DefaultExactOptions()
	opts.GridUs = *gridUs
	opts.Refine = *refine
	opts.MaxCombos = *maxComb
	res, err := afdx.SearchWorstCaseCtx(ctx, pg, opts)
	if err != nil {
		fatal(err)
	}
	cmp, err := afdx.Certify(ctx, pg, 0)
	if err != nil {
		fatal(err)
	}
	paths := net.AllPaths()
	afdx.SortPathIDs(paths)
	rows := make([][]string, 0, len(paths))
	for _, pid := range paths {
		a, pc := res.Delays[pid], cmp.PerPath[pid]
		rows = append(rows, []string{
			pid.String(),
			report.Us(a),
			report.Us(pc.NCUs),
			fmt.Sprintf("%.3f", pc.NCUs/a),
			report.Us(pc.BestUs),
			fmt.Sprintf("%.3f", pc.BestUs/a),
		})
	}
	if err := report.Table(os.Stdout,
		[]string{"path", "achievable (us)", "WCNC bound (us)", "WCNC/achievable", "Best (us)", "Best/achievable"}, rows); err != nil {
		fatal(err)
	}
	fmt.Printf("%d simulator evaluations\n", res.Evaluations)
	sess.Exit(0)
}
