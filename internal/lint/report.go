package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// ReportSchema identifies the -json output format; golden-tested in
// report_test.go so consumers can pin it.
const ReportSchema = "honeyfarm-lint-report-v2"

// ReportFinding is one finding in the machine-readable report. File is
// module-relative with forward slashes.
type ReportFinding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// Report is the -json document: byte-identical between two runs over
// the same tree.
type Report struct {
	Schema   string          `json:"schema"`
	Packages int             `json:"packages"`
	Findings []ReportFinding `json:"findings"`
}

// NewReport builds the report document from the findings of a run over
// packages packages.
func NewReport(findings []Finding, root string, packages int) *Report {
	r := &Report{
		Schema:   ReportSchema,
		Packages: packages,
		Findings: []ReportFinding{}, // encode as [] rather than null
	}
	for _, f := range findings {
		r.Findings = append(r.Findings, ReportFinding{
			Rule:    f.Rule,
			File:    relPath(root, f.Pos.Filename),
			Line:    f.Pos.Line,
			Col:     f.Pos.Column,
			Message: f.Message,
		})
	}
	return r
}

// Write encodes the report as indented JSON with a trailing newline.
func (r *Report) Write(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// relPath rewrites an absolute finding path as module-relative with
// forward slashes, so reports are stable across checkouts.
func relPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}
