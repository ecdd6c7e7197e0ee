package diag

import (
	"encoding/json"
	"io"
)

// SARIF 2.1.0, the subset code scanners and static-analysis viewers
// consume: one run of one tool, one rule per analyzer, one result per
// finding. afdx-lint and afdx-vet each map their own rules, levels and
// locations onto these types; WriteSARIF owns the envelope.

// SARIFRule describes one analyzer of the tool.
type SARIFRule struct {
	ID               string       `json:"id"`
	Name             string       `json:"name"`
	ShortDescription SARIFMessage `json:"shortDescription"`
	FullDescription  SARIFMessage `json:"fullDescription"`
}

// SARIFMessage is a SARIF text message.
type SARIFMessage struct {
	Text string `json:"text"`
}

// SARIFResult is one finding. Level is "error", "warning" or "note".
type SARIFResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   SARIFMessage    `json:"message"`
	Locations []SARIFLocation `json:"locations,omitempty"`
}

// SARIFLocation places a result in a file, by a logical name, or both.
type SARIFLocation struct {
	PhysicalLocation *SARIFPhysical `json:"physicalLocation,omitempty"`
	LogicalLocations []SARIFLogical `json:"logicalLocations,omitempty"`
}

// SARIFPhysical is a file, optionally narrowed to a source region.
type SARIFPhysical struct {
	ArtifactLocation SARIFArtifact `json:"artifactLocation"`
	Region           *SARIFRegion  `json:"region,omitempty"`
}

// SARIFArtifact names the file a result is in.
type SARIFArtifact struct {
	URI string `json:"uri"`
}

// SARIFRegion is a source position; a zero StartColumn is omitted.
type SARIFRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIFLogical is a location named inside the analysed model, such as
// a VL or a port of the network.
type SARIFLogical struct {
	FullyQualifiedName string `json:"fullyQualifiedName"`
}

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []SARIFResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []SARIFRule `json:"rules"`
}

// WriteSARIF writes one indented SARIF 2.1.0 log holding a single run
// of the named tool. No results encode as an empty array, not null, so
// consumers can iterate unconditionally.
func WriteSARIF(w io.Writer, tool string, rules []SARIFRule, results []SARIFResult) error {
	if results == nil {
		results = []SARIFResult{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: tool, Rules: rules}},
			Results: results,
		}},
	})
}
