package cowrielog

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/workload"
)

func sampleRecord() *honeypot.SessionRecord {
	start := time.Date(2022, 3, 10, 8, 30, 0, 0, time.UTC)
	return &honeypot.SessionRecord{
		ID: 42, HoneypotID: 7, Protocol: honeypot.SSH,
		ClientIP: "203.0.113.5", ClientPort: 51234,
		ClientVersion: "SSH-2.0-libssh2_1.8.0",
		Start:         start, End: start.Add(45 * time.Second),
		Logins: []honeypot.LoginAttempt{
			{User: "root", Password: "root"},
			{User: "root", Password: "1234", Success: true},
		},
		Commands: []honeypot.CommandRecord{
			{Input: "uname -a", Known: true},
			{Input: "./bot", Known: false},
		},
		URIs:  []string{"http://evil.example/bot"},
		Files: []honeypot.FileRecord{{Path: "/tmp/bot", Hash: "abc123", Op: "create"}},
	}
}

func TestExportEventStream(t *testing.T) {
	var buf bytes.Buffer
	if err := Export(&buf, []*honeypot.SessionRecord{sampleRecord()}, "hf"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"eventid":"cowrie.session.connect"`,
		`"eventid":"cowrie.login.failed"`,
		`"eventid":"cowrie.login.success"`,
		`"eventid":"cowrie.command.input"`,
		`"eventid":"cowrie.command.failed"`,
		`"eventid":"cowrie.session.file_download"`,
		`"eventid":"cowrie.session.closed"`,
		`"src_ip":"203.0.113.5"`,
		`"sensor":"hf-007"`,
		`"shasum":"abc123"`,
		`"url":"http://evil.example/bot"`,
		`"duration":45`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 7 {
		t.Errorf("event lines = %d, want 7", lines)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	rec := sampleRecord()
	var buf bytes.Buffer
	if err := Export(&buf, []*honeypot.SessionRecord{rec}, "hf"); err != nil {
		t.Fatal(err)
	}
	st, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("records = %d", st.Len())
	}
	got := st.Records()[0]
	if got.ClientIP != rec.ClientIP || got.ClientPort != rec.ClientPort ||
		got.ClientVersion != rec.ClientVersion || got.Protocol != rec.Protocol {
		t.Errorf("connect fields lost: %+v", got)
	}
	if len(got.Logins) != 2 || !got.LoggedIn() || got.Logins[0].Success {
		t.Errorf("logins = %+v", got.Logins)
	}
	if len(got.Commands) != 2 || got.Commands[0].Input != "uname -a" || got.Commands[1].Known {
		t.Errorf("commands = %+v", got.Commands)
	}
	if len(got.Files) != 1 || got.Files[0].Hash != "abc123" {
		t.Errorf("files = %+v", got.Files)
	}
	if len(got.URIs) != 1 {
		t.Errorf("uris = %v", got.URIs)
	}
	if got.Duration().Round(time.Second) != 45*time.Second {
		t.Errorf("duration = %v", got.Duration())
	}
	if analysis.Classify(got) != analysis.CmdURI {
		t.Errorf("classification = %v, want CMD+URI", analysis.Classify(got))
	}
}

func TestImportRealCowrieShapedLog(t *testing.T) {
	// Hand-written lines in the shape real Cowrie emits (RFC3339 nano
	// timestamps, extra fields to ignore).
	log := `{"eventid":"cowrie.session.connect","src_ip":"1.2.3.4","src_port":4000,"session":"s1","protocol":"telnet","timestamp":"2022-01-05T10:00:00.123456Z","sensor":"pot-a","message":"New connection"}
{"eventid":"cowrie.login.failed","username":"admin","password":"admin","session":"s1","timestamp":"2022-01-05T10:00:01.000000Z"}
{"eventid":"cowrie.session.closed","session":"s1","duration":12.5,"timestamp":"2022-01-05T10:00:12.000000Z"}
{"eventid":"cowrie.direct-tcpip.request","session":"s1","timestamp":"2022-01-05T10:00:02.000000Z"}
`
	st, err := Import(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("records = %d", st.Len())
	}
	r := st.Records()[0]
	if r.Protocol != honeypot.Telnet || r.ClientIP != "1.2.3.4" {
		t.Errorf("record = %+v", r)
	}
	if analysis.Classify(r) != analysis.FailLog {
		t.Errorf("classification = %v", analysis.Classify(r))
	}
	if r.Duration() != 12500*time.Millisecond {
		t.Errorf("duration = %v", r.Duration())
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := Import(strings.NewReader("{broken json\n")); err == nil {
		t.Error("broken json should fail")
	}
	bad := `{"eventid":"cowrie.session.connect","session":"x","timestamp":"not-a-time"}`
	if _, err := Import(strings.NewReader(bad)); err == nil {
		t.Error("bad timestamp should fail")
	}
	// A truncated line mid-log (a Cowrie restart) aborts, naming the line.
	log := `{"eventid":"cowrie.session.connect","src_ip":"1.2.3.4","session":"s1","timestamp":"2022-01-05T10:00:00.000000Z","sensor":"pot-a"}
{truncated json line from a cowrie restart
{"eventid":"cowrie.session.closed","session":"s1","duration":5.0,"timestamp":"2022-01-05T10:00:05.000000Z"}
`
	if _, err := Import(strings.NewReader(log)); err == nil {
		t.Error("malformed input accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name the broken line: %v", err)
	}
	// Blank lines and session-less events are tolerated.
	ok := "\n" + `{"eventid":"cowrie.log.open","timestamp":"2022-01-05T10:00:00.000000Z"}` + "\n"
	if _, err := Import(strings.NewReader(ok)); err != nil {
		t.Errorf("tolerable input failed: %v", err)
	}
}

func TestSensorIDMapping(t *testing.T) {
	log := `{"eventid":"cowrie.session.connect","src_ip":"1.1.1.1","session":"a","timestamp":"2022-01-05T10:00:00.000000Z","sensor":"east"}
{"eventid":"cowrie.session.connect","src_ip":"2.2.2.2","session":"b","timestamp":"2022-01-05T11:00:00.000000Z","sensor":"west"}
{"eventid":"cowrie.session.connect","src_ip":"3.3.3.3","session":"c","timestamp":"2022-01-05T12:00:00.000000Z","sensor":"east"}
`
	st, err := Import(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	recs := st.Records()
	if recs[0].HoneypotID != recs[2].HoneypotID {
		t.Error("same sensor should map to same honeypot id")
	}
	if recs[0].HoneypotID == recs[1].HoneypotID {
		t.Error("different sensors should map to different ids")
	}
	// A "-<digits>" suffix, as Export writes it, is the honeypot ID.
	suffixed := `{"eventid":"cowrie.session.connect","src_ip":"1.1.1.1","session":"a","timestamp":"2022-01-05T10:00:00.000000Z","sensor":"hp-007"}
{"eventid":"cowrie.session.connect","src_ip":"2.2.2.2","session":"b","timestamp":"2022-01-05T11:00:00.000000Z","sensor":"hp-221"}
`
	st2, err := Import(strings.NewReader(suffixed))
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Records(); got[0].HoneypotID != 7 || got[1].HoneypotID != 221 {
		t.Errorf("suffixed sensors mapped to %d, %d; want 7, 221", got[0].HoneypotID, got[1].HoneypotID)
	}
}

// TestGeneratedDatasetSurvivesCowrieRoundTrip pushes a generated dataset
// through Export→Import and verifies the analysis results agree — the
// guarantee that real Cowrie logs and synthetic datasets are
// interchangeable inputs to the pipeline.
func TestGeneratedDatasetSurvivesCowrieRoundTrip(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	res, err := workload.Generate(workload.Config{
		Seed: 4, TotalSessions: 8000, Days: 30, NumPots: 12, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(&buf, res.Store.Records(), "hp"); err != nil {
		t.Fatal(err)
	}
	imported, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if imported.Len() != res.Store.Len() {
		t.Fatalf("sessions: %d vs %d", imported.Len(), res.Store.Len())
	}
	a := analysis.ComputeCategoryShares(res.Store)
	b := analysis.ComputeCategoryShares(imported)
	for c := analysis.Category(0); c < analysis.NumCategories; c++ {
		if a.Overall[c] != b.Overall[c] {
			t.Errorf("%v share changed: %v vs %v", c, a.Overall[c], b.Overall[c])
		}
	}
	pa := analysis.ComputePerHoneypot(res.Store, 12)
	pb := analysis.ComputePerHoneypot(imported, 12)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("honeypot %d: %+v vs %+v", i, pa[i], pb[i])
		}
	}
	ha := analysis.ComputeHashStats(res.Store, nil)
	hb := analysis.ComputeHashStats(imported, nil)
	if len(ha) != len(hb) {
		t.Errorf("hash counts: %d vs %d", len(ha), len(hb))
	}
}
