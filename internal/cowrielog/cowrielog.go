// Package cowrielog converts between this repository's session records
// and the JSON event-log format emitted by the real Cowrie honeypot
// (cowrie.json): one JSON object per line with an eventid such as
// cowrie.session.connect, cowrie.login.success, cowrie.command.input, or
// cowrie.session.file_download. The paper's honeyfarm runs "a customized
// version of the Cowrie honeypot suite", so this package is the interop
// seam: real Cowrie logs can be imported and fed through the exact
// analysis pipeline, and generated datasets can be exported for tools
// that expect Cowrie's format.
package cowrielog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/store"
)

// Event is the union of the Cowrie event fields this package reads and
// writes. Unknown fields are ignored on import.
type Event struct {
	EventID   string `json:"eventid"`
	Session   string `json:"session"`
	Timestamp string `json:"timestamp"`
	SrcIP     string `json:"src_ip,omitempty"`
	SrcPort   int    `json:"src_port,omitempty"`
	Protocol  string `json:"protocol,omitempty"` // "ssh" or "telnet"
	Sensor    string `json:"sensor,omitempty"`
	Version   string `json:"version,omitempty"` // client SSH version
	Username  string `json:"username,omitempty"`
	Password  string `json:"password,omitempty"`
	Input     string `json:"input,omitempty"`
	// Duration is Cowrie's float seconds on session.closed.
	Duration float64 `json:"duration,omitempty"`
	// SHA-256 and destination of file downloads / uploads.
	SHASum  string `json:"shasum,omitempty"`
	Outfile string `json:"outfile,omitempty"`
	URL     string `json:"url,omitempty"`
}

// Cowrie event ids.
const (
	EvConnect      = "cowrie.session.connect"
	EvLoginSuccess = "cowrie.login.success"
	EvLoginFailed  = "cowrie.login.failed"
	EvCommandInput = "cowrie.command.input"
	EvCommandFail  = "cowrie.command.failed"
	EvFileDownload = "cowrie.session.file_download"
	EvClosed       = "cowrie.session.closed"
)

const timeLayout = "2006-01-02T15:04:05.000000Z"

// Export writes records as a Cowrie JSON event stream, ordered by
// session start time. sensorName labels the sensor field; honeypot IDs
// are appended (sensor-007), which is how Import recovers them.
func Export(w io.Writer, records []*honeypot.SessionRecord, sensorName string) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	ordered := append([]*honeypot.SessionRecord(nil), records...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Start.Before(ordered[j].Start) })
	for _, r := range ordered {
		if err := exportOne(enc, r, sensorName); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func exportOne(enc *json.Encoder, r *honeypot.SessionRecord, sensorName string) error {
	session := fmt.Sprintf("%016x", r.ID)
	sensor := fmt.Sprintf("%s-%03d", sensorName, r.HoneypotID)
	stamp := func(t time.Time) string { return t.UTC().Format(timeLayout) }
	emit := func(ev Event) error {
		ev.Session = session
		ev.Sensor = sensor
		return enc.Encode(ev)
	}
	if err := emit(Event{
		EventID: EvConnect, Timestamp: stamp(r.Start),
		SrcIP: r.ClientIP, SrcPort: r.ClientPort,
		Protocol: r.Protocol.String(), Version: r.ClientVersion,
	}); err != nil {
		return err
	}
	for _, l := range r.Logins {
		id := EvLoginFailed
		if l.Success {
			id = EvLoginSuccess
		}
		if err := emit(Event{
			EventID: id, Timestamp: stamp(r.Start),
			SrcIP: r.ClientIP, Username: l.User, Password: l.Password,
		}); err != nil {
			return err
		}
	}
	for _, c := range r.Commands {
		id := EvCommandInput
		if !c.Known {
			id = EvCommandFail
		}
		if err := emit(Event{
			EventID: id, Timestamp: stamp(r.Start),
			SrcIP: r.ClientIP, Input: c.Input,
		}); err != nil {
			return err
		}
	}
	for i, f := range r.Files {
		url := ""
		if i < len(r.URIs) {
			url = r.URIs[i]
		}
		if err := emit(Event{
			EventID: EvFileDownload, Timestamp: stamp(r.Start),
			SrcIP: r.ClientIP, SHASum: f.Hash, Outfile: f.Path, URL: url,
		}); err != nil {
			return err
		}
	}
	// URIs beyond recorded files (e.g. failed downloads) still appear.
	for i := len(r.Files); i < len(r.URIs); i++ {
		if err := emit(Event{
			EventID: EvFileDownload, Timestamp: stamp(r.Start),
			SrcIP: r.ClientIP, URL: r.URIs[i],
		}); err != nil {
			return err
		}
	}
	return emit(Event{
		EventID: EvClosed, Timestamp: stamp(r.End),
		SrcIP: r.ClientIP, Duration: r.Duration().Seconds(),
	})
}

// Import reads a Cowrie JSON event stream and reassembles session
// records into a store whose epoch is the earliest event's midnight.
// A sensor name ending in "-<digits>" is that honeypot's ID, the form
// Export writes ("honeyfarm-007" is pot 7); any other sensor name is
// numbered in order of first appearance, from 0 (so a log mixing both
// kinds of name can give two sensors one ID). Events with unknown
// eventids are ignored (they carry no session state this pipeline
// uses). A malformed line aborts with an error naming its line number.
func Import(r io.Reader) (*store.Store, error) {
	type building struct {
		rec    *honeypot.SessionRecord
		closed bool
	}
	sessions := make(map[string]*building)
	var order []string
	firstSeen := make(map[string]int)
	sensorID := func(sensor string) int {
		if id, ok := suffixID(sensor); ok {
			return id
		}
		id, ok := firstSeen[sensor]
		if !ok {
			id = len(firstSeen)
			firstSeen[sensor] = id
		}
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	var earliest time.Time
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("cowrielog: line %d: %w", lineNo, err)
		}
		if ev.Session == "" {
			continue
		}
		ts, err := time.Parse(timeLayout, ev.Timestamp)
		if err != nil {
			// Cowrie emits several sub-second precisions; retry RFC3339.
			ts, err = time.Parse(time.RFC3339Nano, ev.Timestamp)
			if err != nil {
				return nil, fmt.Errorf("cowrielog: line %d: bad timestamp %q", lineNo, ev.Timestamp)
			}
		}
		if earliest.IsZero() || ts.Before(earliest) {
			earliest = ts
		}
		b := sessions[ev.Session]
		if b == nil {
			b = &building{rec: &honeypot.SessionRecord{Start: ts, End: ts}}
			sessions[ev.Session] = b
			order = append(order, ev.Session)
		}
		rec := b.rec
		switch ev.EventID {
		case EvConnect:
			rec.Start = ts
			rec.ClientIP = ev.SrcIP
			rec.ClientPort = ev.SrcPort
			rec.ClientVersion = ev.Version
			rec.HoneypotID = sensorID(ev.Sensor)
			if ev.Protocol == "telnet" {
				rec.Protocol = honeypot.Telnet
			} else {
				rec.Protocol = honeypot.SSH
			}
		case EvLoginSuccess, EvLoginFailed:
			rec.Logins = append(rec.Logins, honeypot.LoginAttempt{
				User: ev.Username, Password: ev.Password,
				Success: ev.EventID == EvLoginSuccess,
			})
		case EvCommandInput, EvCommandFail:
			rec.Commands = append(rec.Commands, honeypot.CommandRecord{
				Input: ev.Input, Known: ev.EventID == EvCommandInput,
			})
		case EvFileDownload:
			if ev.SHASum != "" {
				rec.Files = append(rec.Files, honeypot.FileRecord{
					Path: ev.Outfile, Hash: ev.SHASum, Op: "create",
				})
			}
			if ev.URL != "" {
				rec.URIs = append(rec.URIs, ev.URL)
			}
		case EvClosed:
			b.closed = true
			if ev.Duration > 0 {
				rec.End = rec.Start.Add(time.Duration(ev.Duration * float64(time.Second)))
			} else {
				rec.End = ts
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cowrielog: reading: %w", err)
	}

	st := store.New(earliest.Truncate(24 * time.Hour))
	var id uint64
	for _, key := range order {
		b := sessions[key]
		id++
		b.rec.ID = id
		if !b.closed && b.rec.End.Before(b.rec.Start) {
			b.rec.End = b.rec.Start
		}
		st.Add(b.rec)
	}
	return st, nil
}

// suffixID parses the honeypot ID out of a sensor name ending in
// "-<digits>".
func suffixID(sensor string) (int, bool) {
	i := strings.LastIndexByte(sensor, '-')
	if i < 0 || strings.Trim(sensor[i+1:], "0123456789") != "" {
		return 0, false
	}
	id, err := strconv.Atoi(sensor[i+1:])
	return id, err == nil
}
