package lint

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGolden pins the -json schema byte-for-byte: consumers
// (check.sh, dashboards) parse this format, so any change must show up
// as a reviewed golden diff plus a schema version bump.
func TestReportGolden(t *testing.T) {
	findings := []Finding{
		{
			Rule:    "determinism-taint",
			Pos:     token.Position{Filename: "/mod/internal/report/report.go", Line: 42, Column: 17},
			Message: "nondeterministic value (time.Now) flows into durable write ((*os.File).Write); the artifact path must be a pure function of the seed",
		},
		{
			Rule:    "atomicio-bypass",
			Pos:     token.Position{Filename: "/mod/cmd/serve/main.go", Line: 97, Column: 13},
			Message: "os.WriteFile writes the file non-atomically; route artifact writes through internal/atomicio so a crash never exposes a partial file",
		},
	}
	var buf bytes.Buffer
	if err := NewReport(findings, "/mod", 37).Write(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// TestReportEmpty pins the zero-finding shape: findings must encode as
// an empty array, never null, so jq-style consumers don't special-case.
func TestReportEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewReport(nil, "/mod", 1).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"findings": []`)) {
		t.Errorf("empty report should carry an empty array:\n%s", buf.String())
	}
}
