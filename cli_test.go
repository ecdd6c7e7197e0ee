package afdx_test

// End-to-end tests of the command-line tools: each binary is compiled
// once into a temporary directory and driven through its main flag
// combinations against a real configuration file.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"afdx"
)

var (
	cliOnce  sync.Once
	cliDir   string
	cliErr   error
	cliTools = []string{"afdx-gen", "afdx-lint", "afdx-bounds", "afdx-sim", "afdx-experiments", "afdx-exact", "afdx-conformance", "afdx-vet", "afdx-serve"}
)

// buildCLIs compiles every command once per test binary invocation.
func buildCLIs(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "afdx-cli")
		if cliErr != nil {
			return
		}
		for _, tool := range cliTools {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				cliErr = err
				cliDir = string(out)
				return
			}
		}
	})
	if cliErr != nil {
		t.Fatalf("building CLIs: %v (%s)", cliErr, cliDir)
	}
	return cliDir
}

// sampleConfig writes the Figure 2 configuration to a temp file.
func sampleConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sample.json")
	if err := afdx.Figure2Config().SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

// runCLIStdout runs a tool keeping stdout separate from stderr — for
// machine-readable modes whose purity contract routes human chatter to
// stderr.
func runCLIStdout(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", tool, args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func TestCLIGen(t *testing.T) {
	dir := buildCLIs(t)
	out := runCLI(t, dir, "afdx-gen", "-seed", "3", "-vls", "25", "-switches", "3",
		"-es-per-switch", "2", "-quiet")
	if !strings.Contains(out, `"vls"`) {
		t.Errorf("gen output is not a configuration:\n%s", out)
	}
	dot := runCLI(t, dir, "afdx-gen", "-seed", "3", "-vls", "10", "-switches", "2",
		"-es-per-switch", "2", "-quiet", "-dot")
	if !strings.Contains(dot, "digraph") {
		t.Errorf("expected DOT output:\n%s", dot)
	}
	red := runCLI(t, dir, "afdx-gen", "-seed", "3", "-vls", "10", "-switches", "2",
		"-es-per-switch", "2", "-quiet", "-redundant")
	if !strings.Contains(red, "-redundant") || !strings.Contains(red, `"v0001A"`) {
		t.Errorf("expected mirrored configuration:\n%.400s", red)
	}
}

func TestCLIBounds(t *testing.T) {
	dir := buildCLIs(t)
	cfg := sampleConfig(t)
	out := runCLI(t, dir, "afdx-bounds", "-config", cfg)
	for _, frag := range []string{"v1/0", "293.06", "248.00", "15.38%"} {
		if !strings.Contains(out, frag) {
			t.Errorf("bounds output missing %q:\n%s", frag, out)
		}
	}
	csv := runCLI(t, dir, "afdx-bounds", "-config", cfg, "-csv", "-method", "nc")
	if !strings.Contains(csv, "path,WCNC (us)") {
		t.Errorf("CSV header missing:\n%s", csv)
	}
	extra := runCLI(t, dir, "afdx-bounds", "-config", cfg, "-jitter", "-backlog", "-es-jitter")
	for _, frag := range []string{"jitter (us)", "backlog (bits)", "end system"} {
		if !strings.Contains(extra, frag) {
			t.Errorf("extended output missing %q:\n%s", frag, extra)
		}
	}
}

func TestCLISim(t *testing.T) {
	dir := buildCLIs(t)
	cfg := sampleConfig(t)
	out := runCLI(t, dir, "afdx-sim", "-config", cfg, "-duration-ms", "64", "-compare")
	for _, frag := range []string{"v1/0", "WCNC (us)", "emitted"} {
		if !strings.Contains(out, frag) {
			t.Errorf("sim output missing %q:\n%s", frag, out)
		}
	}
}

func TestCLIExperimentsList(t *testing.T) {
	dir := buildCLIs(t)
	out := runCLI(t, dir, "afdx-experiments", "-list")
	for _, id := range []string{"fig3", "table1", "fig9", "ablation", "priority"} {
		if !strings.Contains(out, id) {
			t.Errorf("experiment list missing %q:\n%s", id, out)
		}
	}
	fig8 := runCLI(t, dir, "afdx-experiments", "-exp", "fig8")
	if !strings.Contains(fig8, "248.00") {
		t.Errorf("fig8 output missing the flat trajectory value:\n%s", fig8)
	}
}

// TestCLIExperimentsAblationGolden pins the ablation table byte for
// byte: every row's name and both bound columns.
func TestCLIExperimentsAblationGolden(t *testing.T) {
	dir := buildCLIs(t)
	want, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", "ablation.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runCLIStdout(t, dir, "afdx-experiments", "-exp", "ablation"); got != string(want) {
		t.Errorf("ablation stdout drifted from testdata/ablation.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}

func TestCLIExact(t *testing.T) {
	dir := buildCLIs(t)
	cfg := sampleConfig(t)
	out := runCLI(t, dir, "afdx-exact", "-config", cfg, "-grid-us", "1000", "-refine", "4")
	for _, frag := range []string{"achievable (us)", "WCNC bound (us)", "evaluations"} {
		if !strings.Contains(out, frag) {
			t.Errorf("exact output missing %q:\n%s", frag, out)
		}
	}
}

func TestCLILint(t *testing.T) {
	dir := buildCLIs(t)
	cfg := sampleConfig(t)
	out := runCLI(t, dir, "afdx-lint", "-config", cfg)
	if !strings.Contains(out, "0 error(s), 0 warning(s)") {
		t.Errorf("Figure 2 should lint clean:\n%s", out)
	}
	rules := runCLI(t, dir, "afdx-lint", "-rules")
	for _, code := range []string{"AFDX001", "AFDX007", "AFDX012"} {
		if !strings.Contains(rules, code) {
			t.Errorf("rule listing missing %q:\n%s", code, rules)
		}
	}
	sarif := runCLI(t, dir, "afdx-lint", "-format", "sarif", cfg)
	if !strings.Contains(sarif, `"version": "2.1.0"`) {
		t.Errorf("SARIF output missing version:\n%.400s", sarif)
	}
}

// TestCLILintExitCodes drives the documented severity contract: 2 for
// errors (and undecodable files), 1 for warnings, and the afdx-bounds
// pre-flight's exit 3 on infeasible configurations.
func TestCLILintExitCodes(t *testing.T) {
	dir := buildCLIs(t)
	broken := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(broken, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(dir, "afdx-lint"), broken)
	out, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 {
		t.Errorf("lint of an error-ridden config: exit %d, want 2\n%s", code, out)
	}
	unstable := "internal/lint/testdata/unstable_port.json"
	cmd = exec.Command(filepath.Join(dir, "afdx-bounds"), "-config", unstable)
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Errorf("bounds on an unstable config: exit %d, want 3\n%s", code, out)
	}
	if !strings.Contains(string(out), "AFDX001") {
		t.Errorf("pre-flight report missing AFDX001:\n%s", out)
	}
	cmd = exec.Command(filepath.Join(dir, "afdx-bounds"), "-config", unstable, "-no-lint")
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("bounds -no-lint on an unstable config: exit %d (engine failure), want 1\n%s", code, out)
	}
	// afdx-sim gates on lint errors like afdx-bounds and, like it,
	// reports each lint warning on stderr and runs.
	cmd = exec.Command(filepath.Join(dir, "afdx-sim"), "-config", unstable, "-duration-ms", "8")
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 3 || !strings.Contains(string(out), "AFDX001") {
		t.Errorf("sim on an unstable config: exit %d, want 3 with AFDX001\n%s", code, out)
	}
	cmd = exec.Command(filepath.Join(dir, "afdx-sim"), "-config", "internal/lint/testdata/overbudget.json", "-duration-ms", "8")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Errorf("sim on an over-budget config: %v, want exit 0\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "afdx-sim: lint: AFDX013 warning [link=S1->e0]") {
		t.Errorf("sim dropped the AFDX013 lint warning; stderr:\n%s", stderr.String())
	}
	// A BAG overflowing to +Inf us is invalid in every mode, so -relaxed
	// rejects the file like a non-positive BAG (exit 2) instead of
	// handing it to a trajectory engine that never terminates on it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd = exec.CommandContext(ctx, filepath.Join(dir, "afdx-bounds"), "-relaxed", "-config", "internal/lint/testdata/nonfinite_bag.json")
	out, _ = cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(string(out), "AFDX004") {
		t.Errorf("bounds -relaxed on a non-finite BAG: exit %d, want 2 with AFDX004\n%s", code, out)
	}
}

// TestCLIConformance drives the conformance oracle end to end: a clean
// run exits 0, the JSON report carries deterministic verdicts across
// -parallel values (flag parity with the other binaries), and the
// injected-fault self-test exits 1 with a shrunk reproduction.
func TestCLIConformance(t *testing.T) {
	dir := buildCLIs(t)
	out := runCLI(t, dir, "afdx-conformance", "-n", "6", "-seed", "9")
	if !strings.Contains(out, "0 violation(s)") || !strings.Contains(out, "checked 6/6") {
		t.Errorf("clean campaign summary malformed:\n%s", out)
	}

	seq := runCLIStdout(t, dir, "afdx-conformance", "-n", "6", "-seed", "9", "-parallel", "1", "-json")
	par := runCLIStdout(t, dir, "afdx-conformance", "-n", "6", "-seed", "9", "-parallel", "4", "-json")
	var repSeq, repPar afdx.ConformanceReport
	if err := json.Unmarshal([]byte(seq), &repSeq); err != nil {
		t.Fatalf("JSON report does not parse: %v\n%s", err, seq)
	}
	if err := json.Unmarshal([]byte(par), &repPar); err != nil {
		t.Fatalf("JSON report does not parse: %v\n%s", err, par)
	}
	if !reflect.DeepEqual(repSeq.Verdicts, repPar.Verdicts) {
		t.Errorf("-parallel 1 and -parallel 4 verdicts differ:\n%s\nvs\n%s", seq, par)
	}
	if repSeq.Checked != 6 || !repSeq.Clean() {
		t.Errorf("unexpected JSON report: %+v", repSeq)
	}
}

// TestCLIConformanceExitCodes pins the 0/1/2 contract: 0 clean
// (TestCLIConformance), 1 on invariant violations, 2 on bad flags.
func TestCLIConformanceExitCodes(t *testing.T) {
	dir := buildCLIs(t)
	corpus := t.TempDir()
	cmd := exec.Command(filepath.Join(dir, "afdx-conformance"),
		"-n", "4", "-seed", "1", "-fault", "nc-optimistic", "-quiet", "-corpus", corpus)
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("faulty engine campaign: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(string(out), "sim-vs-nc") {
		t.Errorf("violation summary does not name the invariant:\n%s", out)
	}
	shrunk, err := filepath.Glob(filepath.Join(corpus, "*.json"))
	if err != nil || len(shrunk) == 0 {
		t.Fatalf("no shrunk reproductions written to -corpus (%v)", err)
	}
	net, err := afdx.LoadJSON(shrunk[0], afdx.Strict)
	if err != nil {
		t.Fatalf("shrunk reproduction does not load: %v", err)
	}
	if n := len(net.VLs); n > 5 {
		t.Errorf("shrunk reproduction has %d VLs, want <= 5", n)
	}

	for _, args := range [][]string{
		{"-n", "0"},
		{"-fault", "bogus"},
		{"-no-such-flag"},
		{"-n", "1", "stray-positional"},
	} {
		cmd := exec.Command(filepath.Join(dir, "afdx-conformance"), args...)
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("afdx-conformance %v: exit %d, want 2\n%s", args, code, out)
		}
	}
}

// TestCLIAnalysisTierFlag pins the NC tier knob's removal from the
// CLIs: afdx-bounds -analysis is an unknown flag and the experiments
// registry has no "tiers" experiment, both usage errors (exit 2). The
// NC column is WCNC — 293.06 us for v1/0 on the Figure 2 sample — and
// the strictly looser separated bound is -no-grouping (335.24 us).
func TestCLIAnalysisTierFlag(t *testing.T) {
	dir := buildCLIs(t)
	cfg := sampleConfig(t)

	for _, tc := range [][]string{
		{"afdx-bounds", "-config", cfg, "-analysis", "FIFO"},
		{"afdx-bounds", "-config", cfg, "-analysis", "WCNC"},
		{"afdx-experiments", "-exp", "tiers"},
		{"afdx-conformance", "-n", "1", "-analysis", "FIFO"},
		{"afdx-conformance", "-n", "1", "-fault", "fifo-optimistic"},
	} {
		cmd := exec.Command(filepath.Join(dir, tc[0]), tc[1:]...)
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", tc, code, out)
		}
	}

	wcnc := runCLI(t, dir, "afdx-bounds", "-config", cfg, "-csv", "-method", "nc")
	if !strings.Contains(wcnc, "path,WCNC (us)") || !strings.Contains(wcnc, "293.06") {
		t.Errorf("NC output missing header or the WCNC bound:\n%s", wcnc)
	}
	separated := runCLI(t, dir, "afdx-bounds", "-config", cfg, "-csv", "-method", "nc", "-no-grouping")
	if !strings.Contains(separated, "path,WCNC (us)") || !strings.Contains(separated, "335.24") {
		t.Errorf("-no-grouping output missing header or the separated bound:\n%s", separated)
	}
}

// TestCLIBoundsExplainArgs drives afdx-bounds -explain parsing on the
// lint corpus's clean configuration (v1 and v2, one path each): a
// malformed value or a path the configuration lacks is a usage error
// (exit 2) reported before any analysis, so stdout stays empty; a bare
// VL means its path 0. -explain prints one block per method that ran:
// -method nc explains a mixed-priority copy of the configuration, which
// the trajectory engine refuses, and -method trajectory prints no NC
// block.
func TestCLIBoundsExplainArgs(t *testing.T) {
	dir := buildCLIs(t)
	cfg := filepath.Join("internal", "lint", "testdata", "clean.json")
	net, err := afdx.LoadJSON(cfg, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	net.VL("v2").Priority = 1
	prio := filepath.Join(t.TempDir(), "priority.json")
	if err := net.SaveJSON(prio); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arg  string
		code int
		want string // stdout fragment on success
		// Per-method rows: extra flags, a config replacing clean.json,
		// and a stdout fragment that must be absent.
		flags  []string
		cfg    string
		absent string
	}{
		{"v1/abc", 2, "", nil, "", ""},
		{"v1/1x", 2, "", nil, "", ""},
		{"v1/-1", 2, "", nil, "", ""},
		{"/0", 2, "", nil, "", ""},
		{"zz/0", 2, "", nil, "", ""},
		{"v1/7", 2, "", nil, "", ""},
		{"v1", 0, "trajectory bound for v1/0", nil, "", ""},
		{"v2/0", 0, "trajectory bound for v2/0", nil, "", ""},
		{"v1/0", 0, "network calculus bound for v1/0", []string{"-method", "nc"}, prio, "trajectory bound"},
		{"v1/0", 0, "trajectory bound for v1/0", []string{"-method", "trajectory"}, "", "network calculus bound"},
	} {
		config := cfg
		if tc.cfg != "" {
			config = tc.cfg
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, "afdx-bounds"), append([]string{"-config", config, "-explain", tc.arg}, tc.flags...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		cmd.Run() //nolint:errcheck // the exit code is checked below
		if code := cmd.ProcessState.ExitCode(); code != tc.code {
			t.Errorf("-explain %q %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.arg, tc.flags, code, tc.code, stdout.String(), stderr.String())
			continue
		}
		if tc.code != 0 {
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), "bad -explain value") {
				t.Errorf("-explain %q: want empty stdout and a usage message\nstdout:\n%s\nstderr:\n%s", tc.arg, stdout.String(), stderr.String())
			}
			continue
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("-explain %q %v: stdout missing %q:\n%s", tc.arg, tc.flags, tc.want, stdout.String())
		}
		if tc.absent != "" && strings.Contains(stdout.String(), tc.absent) {
			t.Errorf("-explain %q %v: stdout holds %q for a method that did not run:\n%s", tc.arg, tc.flags, tc.absent, stdout.String())
		}
	}
}

// TestCLIBoundsWhatIf drives afdx-bounds' what-if flags: every table
// printed after a delta must be byte-equal to a cold -csv run on the
// mutated configuration, whether the deltas come from -delta flags or
// from -whatif stdin; a delta that does not parse or that the session
// rejects is a usage error (exit 2), a delta whose analysis fails an
// analysis failure (exit 1). An unreadable -whatif file or a delta that
// does not parse is caught before any analysis, so stdout stays empty.
func TestCLIBoundsWhatIf(t *testing.T) {
	dir := buildCLIs(t)
	cfg := filepath.Join("internal", "lint", "testdata", "clean.json")
	net, err := afdx.LoadJSON(cfg, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	cold := func(name string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name+".json")
		if err := net.SaveJSON(path); err != nil {
			t.Fatal(err)
		}
		return runCLIStdout(t, dir, "afdx-bounds", "-csv", "-config", path)
	}
	want := cold("base")
	net.VL("v1").SMaxBytes = 100
	want += "\nwhat-if: smax v1 100\n" + cold("smax")
	net.VL("v2").BAGMs = 4
	want += "\nwhat-if: bag v2 4\n" + cold("bag")

	got := runCLIStdout(t, dir, "afdx-bounds", "-csv", "-config", cfg, "-delta", "smax v1 100", "-delta", "bag v2 4")
	if got != want {
		t.Errorf("-delta output differs from the cold runs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, "afdx-bounds"), "-csv", "-config", cfg, "-whatif", "-")
	cmd.Stdin = strings.NewReader("# tighten v1, then slow v2\nsmax v1 100\n\nbag v2 4\n")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("-whatif -: %v\nstderr:\n%s", err, stderr.String())
	}
	if stdout.String() != want {
		t.Errorf("-whatif - output differs from the cold runs:\ngot:\n%s\nwant:\n%s", stdout.String(), want)
	}

	missing := filepath.Join(t.TempDir(), "missing.txt")
	for _, tc := range []struct {
		args  []string
		code  int
		msg   string // stderr fragment
		early bool   // rejected before the config is loaded: empty stdout
	}{
		{[]string{"-delta", "frob v1"}, 2, `unknown delta op "frob"`, true},
		{[]string{"-delta", "bag v1 4", "-delta", "frob v1"}, 2, `unknown delta op "frob"`, true},
		{[]string{"-whatif", missing}, 2, "reading what-if input", true},
		{[]string{"-delta", "drop nosuch"}, 2, `unknown VL "nosuch"`, false},
		{[]string{"-delta", "priority v1 1"}, 1, "priority", false},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, "afdx-bounds"), append([]string{"-config", cfg}, tc.args...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		cmd.Run() //nolint:errcheck // the exit code is checked below
		if code := cmd.ProcessState.ExitCode(); code != tc.code {
			t.Errorf("%q: exit %d, want %d\nstderr:\n%s", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%q: stderr misses %q:\n%s", tc.args, tc.msg, stderr.String())
		}
		if tc.early && stdout.Len() != 0 {
			t.Errorf("%q: want empty stdout, got:\n%s", tc.args, stdout.String())
		}
	}
}

// TestCLIErrorPaths drives usage and input errors: each must exit with
// its documented code, name its cause on stderr and write nothing to
// stdout. Invalid numeric flags and path arguments are rejected before
// any work, and before the lint pre-flight, including a simulation
// horizon the simulator cannot represent. Each numeric or path row used
// to run on a default, degenerate or misparsed value and exit 0 or 1.
func TestCLIErrorPaths(t *testing.T) {
	dir := buildCLIs(t)
	clean := filepath.Join("internal", "lint", "testdata", "clean.json")
	overbudget := filepath.Join("internal", "lint", "testdata", "overbudget.json")
	cases := []struct {
		tool string
		args []string
		code int
		msg  string
	}{
		{"afdx-bounds", nil, 2, "-config"},
		{"afdx-bounds", []string{"-config", clean, "-parallel", "-5"}, 2, "-parallel must be non-negative"},
		{"afdx-experiments", []string{"-exp", "fig3", "-parallel", "-5"}, 2, "-parallel must be non-negative"},
		{"afdx-sim", []string{"-config", clean, "-parallel", "-5"}, 2, "-parallel must be non-negative"},
		{"afdx-conformance", []string{"-n", "1", "-parallel", "-5"}, 2, "-parallel must be non-negative"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-parallel", "-5"}, 2, "-parallel must be non-negative"},
		{"afdx-experiments", []string{"-exp", "nope"}, 2, `unknown experiment "nope"`},
		{"afdx-lint", []string{"-link-budget", "NaN", overbudget}, 2, "-link-budget"},
		{"afdx-lint", []string{"-headroom", "NaN", clean}, 2, "-headroom"},
		{"afdx-lint", []string{"-headroom", "0", clean}, 2, "-headroom"},
		{"afdx-lint", []string{"-link-budget", "1.5", clean}, 2, "-link-budget"},
		{"afdx-sim", []string{"-config", clean, "-duration-ms", "NaN"}, 2, "bad -duration-ms"},
		{"afdx-sim", []string{"-config", clean, "-duration-ms", "1e300"}, 2, "bad -duration-ms"},
		{"afdx-sim", []string{"-config", clean, "-duration-ms", "Inf"}, 2, "bad -duration-ms"},
		{"afdx-sim", []string{"-config", clean, "-duration-ms", "0"}, 2, "bad -duration-ms"},
		{"afdx-sim", []string{"-config", clean, "-duration-ms", "-5"}, 2, "bad -duration-ms"},
		{"afdx-sim", []string{"-config", clean, "-policing", "-policing-rate", "NaN"}, 2, "-policing-rate"},
		{"afdx-sim", []string{"-config", clean, "-policing", "-policing-rate", "-1"}, 2, "-policing-rate"},
		{"afdx-sim", []string{"-config", clean, "-jitter-us", "-5"}, 2, "-jitter-us"},
		{"afdx-sim", []string{"-config", clean, "-jitter-us", "NaN"}, 2, "-jitter-us"},
		{"afdx-sim", []string{"-config", clean, "-histogram", "v1/abc"}, 2, "bad -histogram value"},
		{"afdx-sim", []string{"-config", clean, "-histogram", "v1/0x"}, 2, "bad -histogram value"},
		{"afdx-sim", []string{"-config", clean, "-histogram", "v1/-1"}, 2, "bad -histogram value"},
		{"afdx-sim", []string{"-config", clean, "-histogram", "/0"}, 2, "bad -histogram value"},
		{"afdx-sim", []string{"-config", clean, "-histogram", "bogus"}, 2, "has no path bogus/0"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-timeout", "-1s"}, 2, "-timeout must be non-negative"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-drain-timeout", "-1s"}, 2, "-drain-timeout must be positive"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-drain-timeout", "0"}, 2, "-drain-timeout must be positive"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-max-sessions", "-1"}, 2, "-max-sessions must be non-negative"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-max-body", "-1"}, 2, "-max-body must be non-negative"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-trace-ring", "-1"}, 2, "-trace-ring must be non-negative"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-idle-timeout", "-1s"}, 2, "-idle-timeout must be non-negative"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-slow-threshold", "-1s"}, 2, "-slow-threshold must be non-negative"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-sample-interval", "-1s"}, 2, "-sample-interval must be non-negative"},
		{"afdx-serve", []string{"-selfcheck", "-config", clean, "-replay-steps", "-5"}, 2, "-replay-steps must be non-negative"},
		{"afdx-conformance", []string{"-n", "1", "-budget", "-1s"}, 2, "-budget must be non-negative"},
		{"afdx-gen", []string{"-vls", "-5"}, 2, "-vls"},
		{"afdx-gen", []string{"-switches", "-1"}, 2, "-switches"},
		{"afdx-gen", []string{"-es-per-switch", "-3"}, 2, "-es-per-switch"},
		{"afdx-gen", []string{"-max-utilization", "-1"}, 2, "-max-utilization"},
		{"afdx-gen", []string{"-max-utilization", "NaN"}, 2, "-max-utilization"},
		{"afdx-gen", []string{"-max-utilization", "1.5"}, 2, "-max-utilization"},
		{"afdx-exact", []string{"-config", clean, "-refine", "-3"}, 2, "-refine"},
		{"afdx-exact", []string{"-config", clean, "-grid-us", "-1"}, 2, "-grid-us"},
		{"afdx-exact", []string{"-config", clean, "-max-combos", "-1"}, 2, "-max-combos"},
		{"afdx-exact", []string{"-config", clean, "-max-combos", "0"}, 2, "-max-combos"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, tc.tool), tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		label := tc.tool + " " + strings.Join(tc.args, " ")
		if err == nil {
			t.Errorf("%s: exit 0, want %d", label, tc.code)
			continue
		}
		if code := cmd.ProcessState.ExitCode(); code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstderr:\n%s", label, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%s: stderr misses %q:\n%s", label, tc.msg, stderr.String())
		}
		// A usage error is caught before the lint pre-flight runs, so no
		// lint warning precedes its message.
		if tc.code == 2 && strings.Contains(stderr.String(), ": lint: ") {
			t.Errorf("%s: a usage error printed lint output first:\n%s", label, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: want empty stdout, got:\n%.300s", label, stdout.String())
		}
	}
}

// TestCLIBoundsMetricsAndTrace drives the shared observability flags:
// -metrics must dump a snapshot whose engine counters are nonzero, and
// -tracefile must emit a Chrome-trace JSON array of complete events.
func TestCLIBoundsMetricsAndTrace(t *testing.T) {
	dir := buildCLIs(t)
	cfg := sampleConfig(t)
	td := t.TempDir()
	metrics := filepath.Join(td, "metrics.json")
	tracef := filepath.Join(td, "trace.json")
	runCLI(t, dir, "afdx-bounds", "-config", cfg, "-metrics", metrics, "-tracefile", tracef)

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("-metrics wrote no file: %v", err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics dump is not JSON: %v\n%s", err, raw)
	}
	vals := map[string]int64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	for _, name := range []string{
		"netcalc.ports_analyzed",
		"netcalc.flow_envelopes",
		"trajectory.busy_period_iterations",
		"trajectory.candidate_offsets",
	} {
		if vals[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0 (snapshot: %s)", name, vals[name], raw)
		}
	}

	rawTrace, err := os.ReadFile(tracef)
	if err != nil {
		t.Fatalf("-tracefile wrote no file: %v", err)
	}
	var evs []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(rawTrace, &evs); err != nil {
		t.Fatalf("trace file is not a JSON array: %v\n%.400s", err, rawTrace)
	}
	if len(evs) == 0 {
		t.Fatal("trace file holds no spans")
	}
	names := map[string]bool{}
	for _, e := range evs {
		if e.Ph != "X" {
			t.Errorf("event %q phase %q, want X (complete)", e.Name, e.Ph)
		}
		names[e.Name] = true
	}
	if !names["netcalc"] || !names["trajectory"] {
		t.Errorf("trace misses engine spans, got %v", names)
	}
}

// TestCLIBoundsExplainSharesRun pins that afdx-bounds runs WCNC once on
// the generated industrial configuration of seed 1 (222 output ports),
// with or without -explain: the table, the NC explanation and the
// trajectory explanation's prefix bounds all read the comparison's one
// run. The explanation's own trajectory work runs under the command's
// context, so it shows in the metrics (one more path) and the trace
// (one more trajectory span), and the table it follows is unchanged.
func TestCLIBoundsExplainSharesRun(t *testing.T) {
	dir := buildCLIs(t)
	td := t.TempDir()
	cfg := filepath.Join(td, "industrial.json")
	runCLI(t, dir, "afdx-gen", "-seed", "1", "-quiet", "-out", cfg)
	type run struct {
		stdout   string
		counters map[string]int64
		spans    map[string]int
	}
	bounds := func(extra ...string) run {
		t.Helper()
		metrics, tracef := filepath.Join(td, "metrics.json"), filepath.Join(td, "trace.json")
		out := runCLIStdout(t, dir, "afdx-bounds", append([]string{"-config", cfg, "-metrics", metrics, "-tracefile", tracef}, extra...)...)
		var snap struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		}
		var evs []struct {
			Name string `json:"name"`
		}
		for file, v := range map[string]any{metrics: &snap, tracef: &evs} {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, v); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
		}
		r := run{stdout: out, counters: map[string]int64{}, spans: map[string]int{}}
		for _, c := range snap.Counters {
			r.counters[c.Name] = c.Value
		}
		for _, e := range evs {
			r.spans[e.Name]++
		}
		return r
	}
	plain, explained := bounds(), bounds("-explain", "v0001/0")
	for _, r := range []run{plain, explained} {
		if n := r.counters["netcalc.ports_analyzed"]; n != 222 {
			t.Errorf("netcalc.ports_analyzed = %d, want 222 (one WCNC pass)", n)
		}
		if n := r.spans["netcalc"]; n != 1 {
			t.Errorf("%d netcalc spans, want 1", n)
		}
	}
	if d := explained.counters["trajectory.paths_analyzed"] - plain.counters["trajectory.paths_analyzed"]; d != 1 {
		t.Errorf("-explain added %d trajectory paths to the metrics, want 1", d)
	}
	if plain.spans["trajectory"] != 1 || explained.spans["trajectory"] != 2 {
		t.Errorf("trajectory spans: %d plain, %d with -explain; want 1 and 2", plain.spans["trajectory"], explained.spans["trajectory"])
	}
	if !strings.HasPrefix(explained.stdout, plain.stdout) ||
		!strings.Contains(explained.stdout, "network calculus bound for v0001/0") ||
		!strings.Contains(explained.stdout, "trajectory bound for v0001/0") {
		t.Errorf("-explain output is not the plain table followed by both explanations:\n%.2000s", explained.stdout)
	}
}

// TestCLIConformanceJSONStdoutPure pins the -json purity contract on
// the violating path: even when the injected fault floods the report
// with violations, stdout carries exactly one JSON document (the human
// summary goes to stderr), so `afdx-conformance -json | jq` works.
func TestCLIConformanceJSONStdoutPure(t *testing.T) {
	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, "afdx-conformance"),
		"-n", "3", "-seed", "1", "-fault", "nc-optimistic", "-json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
		t.Fatalf("faulty campaign: exit %d (err %v), want 1", code, err)
	}
	var rep afdx.ConformanceReport
	if uerr := json.Unmarshal(stdout.Bytes(), &rep); uerr != nil {
		t.Fatalf("stdout is not pure JSON: %v\nstdout:\n%.600s", uerr, stdout.String())
	}
	if rep.Clean() || rep.NumViolations == 0 {
		t.Errorf("faulty campaign reported no violations: %+v", rep)
	}
	if !strings.Contains(stderr.String(), "violation(s)") {
		t.Errorf("human summary missing from stderr:\n%s", stderr.String())
	}
}

// vetScratchModule lays out a throwaway module named afdx (so the
// detcheck path classification applies) holding one engine package with
// a seeded determinism bug of each requested flavour, plus the tol
// package the DET004 suggested fix resolves against.
func vetScratchModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module afdx\n\ngo 1.22\n",
		"internal/core/tol/tol.go": "// Package tol holds the shared comparison tolerances.\n" +
			"package tol\n\n// EpsRel is the relative comparison tolerance.\nconst EpsRel = 1e-9\n",
		"internal/netcalc/bad.go": `package netcalc

import "afdx/internal/core/tol"

// sumDelays accumulates float map values in randomized iteration order:
// the seeded DET001 violation the CLI gate must catch.
func sumDelays(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// closeEnough compares against a raw tolerance literal (DET004, with a
// suggested fix to tol.EpsRel).
func closeEnough(a, b float64) bool { return a <= b+1e-9 }

// withinTol keeps the tol import live so the applied fix type-checks.
func withinTol(x float64) bool { return x < tol.EpsRel }
`,
	}
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCLIVetRulesAndCleanTree drives afdx-vet against the repository
// itself: the rule listing names every DET code and a vetted engine
// package exits 0.
func TestCLIVetRulesAndCleanTree(t *testing.T) {
	dir := buildCLIs(t)
	rules := runCLI(t, dir, "afdx-vet", "-rules")
	for _, code := range []string{"DET001", "DET002", "DET003", "DET004", "DET005", "DET006"} {
		if !strings.Contains(rules, code) {
			t.Errorf("rule listing missing %q:\n%s", code, rules)
		}
	}
	out := runCLI(t, dir, "afdx-vet", "./internal/minplus", "./internal/core/...")
	if !strings.Contains(out, "0 finding(s)") {
		t.Errorf("vetted packages should be clean:\n%s", out)
	}
}

// TestCLIVetCatchesSeededBug pins the gate's purpose: a deliberately
// planted DET001/DET004 pair in an engine package exits 1 and is named
// in the text report; -json and -sarif keep stdout machine-pure.
func TestCLIVetCatchesSeededBug(t *testing.T) {
	dir := buildCLIs(t)
	scratch := vetScratchModule(t)
	cmd := exec.Command(filepath.Join(dir, "afdx-vet"), "./...")
	cmd.Dir = scratch
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("seeded-bug module: exit %d, want 1\n%s", code, out)
	}
	for _, frag := range []string{"DET001", "DET004", "internal/netcalc/bad.go"} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}

	cmd = exec.Command(filepath.Join(dir, "afdx-vet"), "-json", "./...")
	cmd.Dir = scratch
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	_ = cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("-json on seeded bugs: exit %d, want 1\n%s", code, stderr.String())
	}
	var rep struct {
		Findings []struct {
			ID  string `json:"id"`
			Fix *struct {
				Old string `json:"old"`
				New string `json:"new"`
			} `json:"fix,omitempty"`
		} `json:"findings"`
		Active int `json:"active"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\nstdout:\n%.600s", err, stdout.String())
	}
	if rep.Active != 2 {
		t.Errorf("active findings = %d, want 2 (DET001 + DET004)", rep.Active)
	}
	var hasFix bool
	for _, f := range rep.Findings {
		if f.ID == "DET004" && f.Fix != nil && f.Fix.New == "tol.EpsRel" {
			hasFix = true
		}
	}
	if !hasFix {
		t.Errorf("DET004 finding carries no tol.EpsRel suggested fix: %+v", rep.Findings)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("human summary missing from stderr:\n%s", stderr.String())
	}

	cmd = exec.Command(filepath.Join(dir, "afdx-vet"), "-sarif", "./...")
	cmd.Dir = scratch
	stdout.Reset()
	stderr.Reset()
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	_ = cmd.Run()
	var sarif struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &sarif); err != nil || sarif.Version != "2.1.0" {
		t.Errorf("stdout is not pure SARIF 2.1.0 (err %v):\n%.400s", err, stdout.String())
	}
}

// TestCLIVetFixRewritesTolerance drives -fix end to end: the DET004
// literal is rewritten to tol.EpsRel, the re-analysis still reports the
// untouched DET001, and a second -fix pass is idempotent.
func TestCLIVetFixRewritesTolerance(t *testing.T) {
	dir := buildCLIs(t)
	scratch := vetScratchModule(t)
	cmd := exec.Command(filepath.Join(dir, "afdx-vet"), "-fix", "./...")
	cmd.Dir = scratch
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("-fix run: exit %d, want 1 (DET001 has no auto-fix)\n%s", code, out)
	}
	if !strings.Contains(string(out), "applied 1 suggested fix") {
		t.Errorf("missing fix-application notice:\n%s", out)
	}
	src, err := os.ReadFile(filepath.Join(scratch, "internal/netcalc/bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "a <= b+tol.EpsRel") {
		t.Errorf("DET004 literal not rewritten:\n%s", src)
	}
	if strings.Contains(string(out), "DET004") {
		t.Errorf("re-analysis after the fix still reports DET004:\n%s", out)
	}
}

// TestCLIVetUsageErrors pins exit 2 for flag and load failures.
func TestCLIVetUsageErrors(t *testing.T) {
	dir := buildCLIs(t)
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-json", "-sarif", "./..."},
		{"./no/such/package"},
	} {
		cmd := exec.Command(filepath.Join(dir, "afdx-vet"), args...)
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("afdx-vet %v: exit %d, want 2\n%s", args, code, out)
		}
	}
}

// startServeDaemon launches afdx-serve on an ephemeral port, consumes
// the stdout readiness line, and returns the running process, the base
// URL, a function yielding the REST of stdout (which the purity
// contract says must stay empty; call it only after Wait — it blocks
// until the pipe drains), and the stderr buffer. The caller signals
// and Waits; a watchdog kills a hung daemon after 30s.
func startServeDaemon(t *testing.T, dir string, args ...string) (*exec.Cmd, string, func() string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, "afdx-serve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var restOut, stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	t.Cleanup(func() {
		watchdog.Stop()
		cmd.Process.Kill()
		cmd.Wait()
	})
	rd := bufio.NewReader(pipe)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("no readiness line on stdout: %v\nstderr:\n%s", err, stderr.String())
	}
	var ready struct {
		Listening   string `json:"listening"`
		PID         int    `json:"pid"`
		MaxSessions int    `json:"maxSessions"`
	}
	if err := json.Unmarshal([]byte(line), &ready); err != nil {
		t.Fatalf("readiness line is not JSON: %v\n%s", err, line)
	}
	if ready.Listening == "" || ready.PID != cmd.Process.Pid {
		t.Fatalf("malformed readiness line: %s", line)
	}
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		io.Copy(&restOut, rd) //nolint:errcheck // EOF at process exit
	}()
	rest := func() string {
		<-copied
		return restOut.String()
	}
	return cmd, "http://" + ready.Listening, rest, &stderr
}

// TestCLIServeDaemon drives the daemon end to end: ephemeral-port
// startup with a JSON readiness line, a real upload + what-if round
// trip over HTTP, a graceful SIGTERM drain exiting 0, and the stdout
// purity contract (the readiness line is the only stdout output).
func TestCLIServeDaemon(t *testing.T) {
	dir := buildCLIs(t)
	cmd, base, restOut, stderr := startServeDaemon(t, dir)

	cfg, err := json.Marshal(afdx.Figure2Config())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(cfg))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: HTTP %d, want 201\n%s", resp.StatusCode, body)
	}
	var opened struct {
		Session string `json:"session"`
		Paths   []struct {
			Path   string  `json:"path"`
			BestUs float64 `json:"bestUs"`
		} `json:"paths"`
	}
	if err := json.Unmarshal(body, &opened); err != nil {
		t.Fatalf("upload response is not JSON: %v\n%s", err, body)
	}
	if opened.Session == "" || len(opened.Paths) == 0 {
		t.Fatalf("upload response missing session or bounds:\n%s", body)
	}

	// A what-if on the live session answers with re-analysed bounds.
	resp, err = http.Post(base+"/v1/sessions/"+opened.Session+"/whatif",
		"application/json", strings.NewReader(`{"deltas": ["bag v1 8"]}`))
	if err != nil {
		t.Fatalf("whatif: %v", err)
	}
	wbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whatif: HTTP %d, want 200\n%s", resp.StatusCode, wbody)
	}
	if !strings.Contains(string(wbody), `"paths"`) {
		t.Fatalf("whatif response missing bounds:\n%s", wbody)
	}

	// Errors arrive as diag-style JSON, not HTML.
	resp, err = http.Post(base+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	ebody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(ebody), "SRV001") {
		t.Errorf("malformed upload: HTTP %d body %s, want 400 with SRV001", resp.StatusCode, ebody)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v (want 0)\nstderr:\n%s", err, stderr.String())
	}
	if got := restOut(); got != "" {
		t.Errorf("stdout carried more than the readiness line:\n%s", got)
	}
	for _, frag := range []string{"serving on", "draining", "stopped"} {
		if !strings.Contains(stderr.String(), frag) {
			t.Errorf("stderr log missing %q:\n%s", frag, stderr.String())
		}
	}
}

// TestCLIServeSelfcheck runs the served-conformance smoke the way
// check.sh does: a seeded script against a loopback daemon, every
// answer re-derived cold, zero mismatches, pure-JSON stdout — with
// structured logging and trace retention fully on, so the purity
// contract is proven to survive the observability layer (-log can
// only name stderr or a file, never stdout).
func TestCLIServeSelfcheck(t *testing.T) {
	dir := buildCLIs(t)
	cfg := sampleConfig(t)
	out := runCLIStdout(t, dir, "afdx-serve", "-selfcheck", "-config", cfg,
		"-replay-seed", "5", "-replay-steps", "6",
		"-log", "stderr", "-logjson", "-trace-ring", "64")
	var rep struct {
		Session    string `json:"session"`
		Steps      int    `json:"steps"`
		Workers    int    `json:"workers"`
		Mismatches int    `json:"mismatches"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("selfcheck stdout is not pure JSON: %v\n%s", err, out)
	}
	if rep.Mismatches != 0 {
		t.Errorf("selfcheck found %d mismatches:\n%s", rep.Mismatches, out)
	}
	if rep.Steps == 0 || rep.Session == "" || rep.Workers < 2 {
		t.Errorf("malformed selfcheck report: %+v", rep)
	}
}

// TestCLILogStdoutRefused pins the -log sink contract across the CLI
// family: stdout is reserved for machine-readable output, so naming it
// as the log destination is a usage error before any work happens.
func TestCLILogStdoutRefused(t *testing.T) {
	dir := buildCLIs(t)
	for _, tool := range []string{"afdx-serve", "afdx-vet", "afdx-lint"} {
		for _, dest := range []string{"stdout", "-"} {
			cmd := exec.Command(filepath.Join(dir, tool), "-log", dest)
			out, _ := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Errorf("%s -log %s: exit %d, want 2\n%s", tool, dest, code, out)
			}
			if !strings.Contains(string(out), "stdout is reserved") {
				t.Errorf("%s -log %s: missing refusal message:\n%s", tool, dest, out)
			}
		}
	}
}

// TestCLIServeUsageErrors pins exit 2 for flag and configuration
// failures, before any socket is opened.
func TestCLIServeUsageErrors(t *testing.T) {
	dir := buildCLIs(t)
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"stray-positional"},
		{"-selfcheck"},
		{"-selfcheck", "-config", "/no/such/file.json"},
		{"-log", "stdout"},
	} {
		cmd := exec.Command(filepath.Join(dir, "afdx-serve"), args...)
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("afdx-serve %v: exit %d, want 2\n%s", args, code, out)
		}
	}
}
