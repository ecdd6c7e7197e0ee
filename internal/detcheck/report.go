package detcheck

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"afdx/internal/diag"
)

// Report is the outcome of running the suite over a set of packages.
type Report struct {
	// Findings holds every finding, suppressed ones included, sorted by
	// file/line/column/code.
	Findings []Finding `json:"findings"`
	// Packages counts the packages analysed.
	Packages int `json:"packages"`
	// Active and Suppressed count the findings by suppression state;
	// only Active findings gate.
	Active     int `json:"active"`
	Suppressed int `json:"suppressed"`
}

// Run loads the given patterns from the module rooted at root and runs
// every registered analyzer over every package.
func Run(root string, patterns ...string) (*Report, error) {
	pkgs, err := Load(root, patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs), nil
}

// RunPackages runs the suite over already-loaded packages.
func RunPackages(pkgs []*Package) *Report {
	rep := &Report{Findings: []Finding{}, Packages: len(pkgs)}
	for _, pkg := range pkgs {
		rep.Findings = append(rep.Findings, RunPackage(pkg)...)
	}
	sortFindings(rep.Findings)
	for _, f := range rep.Findings {
		if f.Suppressed {
			rep.Suppressed++
		} else {
			rep.Active++
		}
	}
	return rep
}

// ExitCode maps the report to the afdx-vet process exit contract:
// 0 clean (suppressed findings do not gate), 1 active findings.
// (Exit 2 — usage or load errors — is the CLI's, not the report's.)
func (r *Report) ExitCode() int {
	if r.Active > 0 {
		return 1
	}
	return 0
}

// Diagnostics renders the findings as internal/diag diagnostics — the
// shared currency of afdx-lint and afdx-vet: active findings are
// errors, suppressed ones informational.
func (r *Report) Diagnostics() []diag.Diagnostic {
	out := make([]diag.Diagnostic, 0, len(r.Findings))
	for _, f := range r.Findings {
		sev := diag.Error
		msg := f.Message
		if f.Suppressed {
			sev = diag.Info
			msg += " (suppressed: " + f.Justification + ")"
		}
		out = append(out, diag.Diagnostic{
			Code:       diag.Code(f.ID),
			Severity:   sev,
			Loc:        diag.Location{File: f.File, Line: f.Line},
			Message:    msg,
			Suggestion: f.Suggestion,
		})
	}
	return out
}

// WriteText renders the report for humans in afdx-lint's text shape:
// one line per finding, an indented fix suggestion, and a closing
// summary.
func (r *Report) WriteText(w io.Writer) error {
	for _, d := range r.Diagnostics() {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
		if d.Suggestion != "" {
			if _, err := fmt.Fprintf(w, "        fix: %s\n", d.Suggestion); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "afdx-vet: %d package(s), %d finding(s), %d suppressed\n",
		r.Packages, r.Active, r.Suppressed)
	return err
}

// WriteJSON renders the report as one indented JSON document. A clean
// report carries an empty findings array, not null.
func (r *Report) WriteJSON(w io.Writer) error {
	out := *r
	if out.Findings == nil {
		out.Findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// WriteSARIF renders the report in SARIF 2.1.0: one run, one rule per
// registered analyzer (plus DET000), one result per finding with its
// physical source location.
func (r *Report) WriteSARIF(w io.Writer) error {
	rules := []diag.SARIFRule{{
		ID:               CodeMeta,
		Name:             "detcheck",
		ShortDescription: diag.SARIFMessage{Text: "detcheck"},
		FullDescription:  diag.SARIFMessage{Text: "malformed //detcheck: directives and packages that fail to load"},
	}}
	for _, a := range Analyzers() {
		rules = append(rules, diag.SARIFRule{
			ID:               a.ID,
			Name:             a.Name,
			ShortDescription: diag.SARIFMessage{Text: a.Name},
			FullDescription:  diag.SARIFMessage{Text: a.Doc},
		})
	}
	var results []diag.SARIFResult
	for _, f := range r.Findings {
		level := "error"
		if f.Suppressed {
			level = "note"
		}
		results = append(results, diag.SARIFResult{
			RuleID:  f.ID,
			Level:   level,
			Message: diag.SARIFMessage{Text: f.Message},
			Locations: []diag.SARIFLocation{{PhysicalLocation: &diag.SARIFPhysical{
				ArtifactLocation: diag.SARIFArtifact{URI: f.File},
				Region:           &diag.SARIFRegion{StartLine: f.Line, StartColumn: f.Col},
			}}},
		})
	}
	return diag.WriteSARIF(w, "afdx-vet", rules, results)
}

// ApplyFixes applies every mechanical fix among the active findings to
// the files under root, highest offsets first so earlier edits do not
// shift later ones. It returns the number of edits applied.
func (r *Report) ApplyFixes(root string) (int, error) {
	byFile := map[string][]*Fix{}
	for i := range r.Findings {
		f := &r.Findings[i]
		if f.Fix != nil && !f.Suppressed {
			byFile[f.Fix.File] = append(byFile[f.Fix.File], f.Fix)
		}
	}
	applied := 0
	for file, fixes := range byFile {
		sort.Slice(fixes, func(i, j int) bool { return fixes[i].Offset > fixes[j].Offset })
		path := file
		if !filepath.IsAbs(path) {
			path = filepath.Join(root, path)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return applied, fmt.Errorf("detcheck: applying fixes: %v", err)
		}
		for _, fx := range fixes {
			if fx.Offset < 0 || fx.End > len(src) || fx.Offset > fx.End {
				return applied, fmt.Errorf("detcheck: fix range [%d,%d) out of bounds for %s", fx.Offset, fx.End, file)
			}
			if got := string(src[fx.Offset:fx.End]); got != fx.Old {
				return applied, fmt.Errorf("detcheck: fix mismatch in %s: found %q, expected %q (stale analysis?)", file, got, fx.Old)
			}
			src = append(src[:fx.Offset], append([]byte(fx.New), src[fx.End:]...)...)
			applied++
		}
		if err := os.WriteFile(path, src, 0o644); err != nil {
			return applied, fmt.Errorf("detcheck: writing fixed %s: %v", file, err)
		}
	}
	return applied, nil
}
