package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"afdx/internal/diag"
)

// WriteText renders the report for humans: one line per diagnostic
// (code, severity, location, message), an indented fix suggestion, and
// a closing summary line.
func (r *Report) WriteText(w io.Writer) error {
	for _, d := range r.Diagnostics {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
		if d.Suggestion != "" {
			if _, err := fmt.Fprintf(w, "        fix: %s\n", d.Suggestion); err != nil {
				return err
			}
		}
	}
	summary := fmt.Sprintf("%s: %d error(s), %d warning(s), %d info", r.Network, r.Errors, r.Warnings, r.Infos)
	if len(r.Skipped) > 0 {
		summary += fmt.Sprintf(" [%s skipped: port graph not derivable]", strings.Join(r.Skipped, ", "))
	}
	_, err := fmt.Fprintln(w, summary)
	return err
}

// WriteJSON renders the report as one indented JSON document. A clean
// report carries an empty diagnostics array, not null, so consumers can
// iterate unconditionally.
func (r *Report) WriteJSON(w io.Writer) error {
	out := *r
	if out.Diagnostics == nil {
		out.Diagnostics = []diag.Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

func sarifLevel(s diag.Severity) string {
	switch s {
	case diag.Error:
		return "error"
	case diag.Warning:
		return "warning"
	default:
		return "note"
	}
}

// WriteSARIF renders the report in SARIF 2.1.0 so CI systems and code
// scanners can ingest it: one rule per registered analyzer, one result
// per diagnostic. artifactURI names the configuration file the report
// describes (empty is allowed: locations then carry only the logical
// network coordinates).
func (r *Report) WriteSARIF(w io.Writer, artifactURI string) error {
	var rules []diag.SARIFRule
	for _, a := range Analyzers() {
		rules = append(rules, diag.SARIFRule{
			ID:               string(a.Code),
			Name:             a.Name,
			ShortDescription: diag.SARIFMessage{Text: a.Name},
			FullDescription:  diag.SARIFMessage{Text: a.Doc},
		})
	}
	var results []diag.SARIFResult
	for _, d := range r.Diagnostics {
		res := diag.SARIFResult{
			RuleID:  string(d.Code),
			Level:   sarifLevel(d.Severity),
			Message: diag.SARIFMessage{Text: d.Message},
		}
		var loc diag.SARIFLocation
		if artifactURI != "" {
			loc.PhysicalLocation = &diag.SARIFPhysical{ArtifactLocation: diag.SARIFArtifact{URI: artifactURI}}
		}
		if !d.Loc.IsZero() {
			loc.LogicalLocations = []diag.SARIFLogical{{FullyQualifiedName: d.Loc.String()}}
		}
		if loc.PhysicalLocation != nil || loc.LogicalLocations != nil {
			res.Locations = []diag.SARIFLocation{loc}
		}
		results = append(results, res)
	}
	return diag.WriteSARIF(w, "afdx-lint", rules, results)
}
