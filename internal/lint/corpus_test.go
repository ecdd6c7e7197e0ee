package lint_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	afdx "afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/diag"
	"afdx/internal/lint"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// loadCorpus decodes one testdata configuration without validating it
// (the linter reports every defect itself).
func loadCorpus(t *testing.T, name string) *afdx.Network {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := afdx.DecodeJSON(f)
	if err != nil {
		t.Fatalf("decoding %s: %v", name, err)
	}
	return net
}

// uniqueCodes returns the sorted set of distinct codes in a report.
func uniqueCodes(rep *lint.Report) []string {
	set := map[string]bool{}
	for _, d := range rep.Diagnostics {
		set[string(d.Code)] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// TestGoldenCorpus pins every analyzer to a configuration constructed
// to trip it — and nothing else. Each file is a golden example of one
// diagnostic code; multi.json checks that independent defects coexist.
func TestGoldenCorpus(t *testing.T) {
	cases := []struct {
		file  string
		codes []string // exact set of distinct codes expected
		exit  int      // severity exit code (0 clean/info, 1 warnings, 2 errors)
	}{
		{"clean.json", []string{}, 0},
		{"unstable_port.json", []string{"AFDX001", "AFDX013"}, 2},
		{"routing_loop.json", []string{"AFDX002"}, 2},
		{"no_path.json", []string{"AFDX002"}, 2},
		{"dup_vl.json", []string{"AFDX003"}, 2},
		{"bad_bag.json", []string{"AFDX004"}, 2},
		{"nonfinite_bag.json", []string{"AFDX004"}, 2},
		{"bad_frame.json", []string{"AFDX005"}, 2},
		{"bad_tree.json", []string{"AFDX006"}, 2},
		{"no_grouping.json", []string{"AFDX007"}, 0},
		{"jitter.json", []string{"AFDX008"}, 1},
		{"deadline.json", []string{"AFDX009"}, 1},
		{"orphan.json", []string{"AFDX010"}, 1},
		{"bad_network.json", []string{"AFDX011"}, 2},
		{"bad_attach.json", []string{"AFDX012"}, 2},
		{"overbudget.json", []string{"AFDX013"}, 1},
		{"multi.json", []string{"AFDX003", "AFDX004", "AFDX010"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			net := loadCorpus(t, tc.file)
			rep := lint.Run(net, lint.DefaultOptions())
			got := uniqueCodes(rep)
			if len(got) != len(tc.codes) {
				t.Fatalf("codes = %v, want %v\nreport:\n%s", got, tc.codes, renderText(t, rep))
			}
			for i := range got {
				if got[i] != tc.codes[i] {
					t.Fatalf("codes = %v, want %v\nreport:\n%s", got, tc.codes, renderText(t, rep))
				}
			}
			if rep.ExitCode() != tc.exit {
				t.Errorf("exit code = %d, want %d", rep.ExitCode(), tc.exit)
			}
		})
	}
}

// TestCorpusNonFiniteBAGErrorInBothModes pins that a BAG overflowing
// to +Inf us is not demoted to a warning under Relaxed validation, as
// out-of-standard sweep values are: no engine can analyse it.
func TestCorpusNonFiniteBAGErrorInBothModes(t *testing.T) {
	net := loadCorpus(t, "nonfinite_bag.json")
	for _, mode := range []afdx.ValidationMode{afdx.Strict, afdx.Relaxed} {
		opts := lint.DefaultOptions()
		opts.Mode = mode
		rep := lint.Run(net, opts)
		if got := uniqueCodes(rep); len(got) != 1 || got[0] != "AFDX004" || rep.ExitCode() != 2 {
			t.Errorf("mode %v: codes %v, exit %d; want [AFDX004] with exit 2\n%s", mode, got, rep.ExitCode(), renderText(t, rep))
		}
	}
}

func renderText(t *testing.T, rep *lint.Report) string {
	t.Helper()
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestCorpusRoutingLoopPreciseCycle checks the cycle report names the
// three ports on the loop and none of the ports merely downstream.
func TestCorpusRoutingLoopPreciseCycle(t *testing.T) {
	rep := lint.Run(loadCorpus(t, "routing_loop.json"), lint.DefaultOptions())
	if len(rep.Diagnostics) != 1 {
		t.Fatalf("got %d diagnostics, want 1:\n%s", len(rep.Diagnostics), renderText(t, rep))
	}
	msg := rep.Diagnostics[0].Message
	for _, want := range []string{"3 ports", "S1->S2", "S2->S3", "S3->S1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("cycle message %q missing %q", msg, want)
		}
	}
	for _, stray := range []string{"f1", "f2", "f3"} {
		if strings.Contains(msg, stray) {
			t.Errorf("cycle message %q names downstream-only port %s", msg, stray)
		}
	}
}

// TestCorpusSkipsPortAnalyzers checks that configurations whose port
// graph cannot be derived still lint (structural analyzers run) and
// honestly report which analyzers were skipped.
func TestCorpusSkipsPortAnalyzers(t *testing.T) {
	rep := lint.Run(loadCorpus(t, "routing_loop.json"), lint.DefaultOptions())
	if len(rep.Skipped) == 0 {
		t.Fatal("expected port-graph analyzers to be skipped on a cyclic configuration")
	}
	for _, name := range rep.Skipped {
		a := analyzerByName(name)
		if a == nil {
			t.Fatalf("skipped list names unregistered analyzer %q", name)
		}
		if !a.NeedsPorts {
			t.Errorf("analyzer %q skipped but does not need the port graph", name)
		}
	}
}

func analyzerByName(name string) *lint.Analyzer {
	for _, a := range lint.Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// TestFigure2Clean pins the acceptance criterion: the paper's sample
// configuration lints completely clean.
func TestFigure2Clean(t *testing.T) {
	rep := lint.Run(afdx.Figure2Config(), lint.DefaultOptions())
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("Figure 2 configuration is not clean:\n%s", renderText(t, rep))
	}
	if rep.ExitCode() != 0 {
		t.Errorf("exit code = %d, want 0", rep.ExitCode())
	}
}

// TestGroupingInfoMatchesBounds holds AFDX007 to its fix line: it
// fires exactly when -no-grouping leaves every bound of both engines
// unchanged. It checks the corpus file that fires it and one end
// system sending two VLs through S1 to different end systems, whose
// source-port group of two the trajectory engine serializes.
func TestGroupingInfoMatchesBounds(t *testing.T) {
	split := loadCorpus(t, "clean.json")
	split.EndSystems = append(split.EndSystems, "e3")
	split.VLs[1].Paths = [][]string{{"e1", "S1", "e3"}}
	for _, tc := range []struct {
		name string
		net  *afdx.Network
	}{
		{"no_grouping.json", loadCorpus(t, "no_grouping.json")},
		{"split", split},
	} {
		pg, err := afdx.BuildPortGraph(tc.net, afdx.Strict)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ncOn, err1 := netcalc.Analyze(pg, netcalc.DefaultOptions())
		ncOff, err2 := netcalc.Analyze(pg, netcalc.Options{})
		trOn, err3 := trajectory.Analyze(pg, trajectory.DefaultOptions())
		trOff, err4 := trajectory.Analyze(pg, trajectory.Options{})
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		identical := reflect.DeepEqual(ncOn.PathDelays, ncOff.PathDelays) &&
			reflect.DeepEqual(trOn.PathDelays, trOff.PathDelays)
		rep := lint.Run(tc.net, lint.DefaultOptions())
		fires := slices.Contains(rep.Codes(), diag.CodeGrouping)
		if fires != identical {
			t.Errorf("%s: AFDX007 fires = %v, but -no-grouping gives identical bounds = %v\n%s",
				tc.name, fires, identical, renderText(t, rep))
		}
	}
}

// TestIndustrialSeed1NoErrors pins the other acceptance criterion: the
// synthetic industrial configuration (seed 1) has no lint errors. (It
// carries AFDX008 jitter warnings — the generator packs end systems as
// densely as the published statistics demand.)
func TestIndustrialSeed1NoErrors(t *testing.T) {
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := lint.Run(net, lint.DefaultOptions())
	if rep.HasErrors() {
		t.Fatalf("industrial seed 1 has lint errors:\n%s", renderText(t, rep))
	}
	for _, d := range rep.Diagnostics {
		if d.Severity == diag.Warning && d.Code != diag.CodeESJitter {
			t.Errorf("unexpected warning: %s", d)
		}
	}
}

// TestRunTreatsNaNThresholdsAsUnset: a NaN threshold takes its default,
// like zero does; it must not silence its warning (every comparison
// with NaN is false). An eighth 1518-byte VL at BAG 1 ms puts
// overbudget.json's S1->e0 at utilization 0.971, so the default options
// report both the AFDX001 headroom and the AFDX013 budget warning.
func TestRunTreatsNaNThresholdsAsUnset(t *testing.T) {
	net := loadCorpus(t, "overbudget.json")
	net.VLs = append(net.VLs, &afdx.VirtualLink{
		ID: "v8", Source: "e2", BAGMs: 1, SMaxBytes: 1518, SMinBytes: 64,
		Paths: [][]string{{"e2", "S1", "e0"}},
	})
	want := lint.Run(net, lint.DefaultOptions())
	if codes := strings.Join(uniqueCodes(want), ","); codes != "AFDX001,AFDX013" || want.Warnings != 2 {
		t.Fatalf("default options: codes %s, %d warnings; want AFDX001,AFDX013 and 2", codes, want.Warnings)
	}
	for _, tc := range []struct {
		name string
		opts lint.Options
	}{
		{"headroom", lint.Options{Mode: afdx.Strict, UtilizationHeadroom: math.NaN(), LinkUtilizationWarn: 0.75}},
		{"link-budget", lint.Options{Mode: afdx.Strict, UtilizationHeadroom: 0.95, LinkUtilizationWarn: math.NaN()}},
	} {
		if got := lint.Run(net, tc.opts); !reflect.DeepEqual(got, want) {
			t.Errorf("NaN %s: report differs from the default options':\n%s", tc.name, renderText(t, got))
		}
	}
}
