// Package honeypot implements the medium-interaction SSH/Telnet honeypot
// at the heart of the reproduced honeyfarm: Cowrie's authentication
// policy (user "root", any password except "root", three tries), its
// session lifecycle (pre-auth and post-auth inactivity timeouts), and its
// recording model (credentials, known/unknown commands, URIs, file
// hashes). The output unit is the SessionRecord — exactly the per-session
// summary the paper's collector stores 402 million of.
package honeypot

import (
	"fmt"
	"time"
)

// Protocol distinguishes the two attack-surface protocols the farm
// exposes. SSH accounts for 75.84% of the paper's sessions, Telnet for
// 24.16%.
type Protocol uint8

// Protocol values.
const (
	SSH Protocol = iota
	Telnet
)

func (p Protocol) String() string {
	if p == SSH {
		return "ssh"
	}
	return "telnet"
}

// Termination records how a session ended.
type Termination uint8

// Termination values.
const (
	// TermClient: the client tore the connection down.
	TermClient Termination = iota
	// TermTimeout: the honeypot's inactivity timeout fired.
	TermTimeout
	// TermAuthFailure: disconnected after exhausting login attempts.
	TermAuthFailure
	// TermExit: the client ran exit/logout.
	TermExit
)

func (t Termination) String() string {
	switch t {
	case TermClient:
		return "client"
	case TermTimeout:
		return "timeout"
	case TermAuthFailure:
		return "auth-failure"
	case TermExit:
		return "exit"
	}
	return fmt.Sprintf("Termination(%d)", uint8(t))
}

// LoginAttempt is one recorded credential pair.
type LoginAttempt struct {
	User     string `json:"user"`
	Password string `json:"password"`
	Success  bool   `json:"success"`
}

// CommandRecord is one executed command, known (emulated) or unknown.
type CommandRecord struct {
	Input string `json:"input"`
	Known bool   `json:"known"`
}

// FileRecord is one file created or modified during the session, with
// the SHA-256 content hash the paper's campaign analysis keys on.
type FileRecord struct {
	Path string `json:"path"`
	Hash string `json:"hash"`
	Op   string `json:"op"` // "create" or "modify"
	Size int    `json:"size"`
}

// SessionRecord is the complete summary of one client session — the
// paper's unit of analysis.
type SessionRecord struct {
	ID            uint64          `json:"id"`
	HoneypotID    int             `json:"honeypot"`
	Protocol      Protocol        `json:"protocol"`
	ClientIP      string          `json:"client_ip"`
	ClientPort    int             `json:"client_port"`
	Start         time.Time       `json:"start"`
	End           time.Time       `json:"end"`
	ClientVersion string          `json:"client_version,omitempty"`
	Logins        []LoginAttempt  `json:"logins,omitempty"`
	Commands      []CommandRecord `json:"commands,omitempty"`
	URIs          []string        `json:"uris,omitempty"`
	Files         []FileRecord    `json:"files,omitempty"`
	Termination   Termination     `json:"termination"`
	// Transcript is a slot for the raw shell output sent to the client
	// (Cowrie's TTY log). No collector writes it; it keeps its place in
	// the record log's layout and the record's JSON form, which carry it
	// when a record has one.
	Transcript []byte `json:"transcript,omitempty"`
}

// Duration returns the session length.
func (r *SessionRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// LoggedIn reports whether any login attempt succeeded.
func (r *SessionRecord) LoggedIn() bool {
	for _, l := range r.Logins {
		if l.Success {
			return true
		}
	}
	return false
}
