package lint

import (
	"encoding/json"
	"io"
)

// ReportSchema identifies the -json output format; golden-tested in
// report_test.go so consumers can pin it.
const ReportSchema = "honeyfarm-lint-report-v1"

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
	Schema    string          `json:"schema"`
	Packages  int             `json:"packages"`
	Baselined int             `json:"baselined"`
	Findings  []ReportFinding `json:"findings"`
}

// NewReport builds the report document from post-baseline findings.
func NewReport(findings []Finding, root string, packages, baselined int) *Report {
	r := &Report{
		Schema:    ReportSchema,
		Packages:  packages,
		Baselined: baselined,
		Findings:  []ReportFinding{}, // encode as [] rather than null
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
