// Command attack is the client-side tool: it connects to a honeypot
// (this repository's, or any SSH/Telnet server) and enacts one session
// through internal/loadgen's script executor. What the flags select:
//
//   - -scan: a scanner — handshake (SSH) or banner (Telnet), no
//     credentials, leave (NO_CRED).
//   - neither -cmd nor -script: log in with -user/-pass, open a shell,
//     say nothing, leave (NO_CMD).
//   - -cmd and/or -script: an intruder — log in and run the lines (CMD,
//     or CMD+URI if a line downloads something). Over SSH exactly one
//     line is sent as an exec request and several are typed into a shell
//     on a pty; over Telnet each line is typed at a prompt. The peer's
//     output is printed.
//
// A login the server rejects ends the run with an error; there is no
// flag for a session of failed logins only.
//
// Usage:
//
//	attack -addr localhost:2222 -proto ssh -user root -pass 1234 -cmd 'uname -a'
//	attack -addr localhost:2222 -proto ssh -scan                      # NO_CRED probe
//	attack -addr localhost:2323 -proto telnet -user root -pass 1234 -script cmds.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/loadgen"
)

func main() {
	addr := flag.String("addr", "localhost:2222", "target host:port")
	proto := flag.String("proto", "ssh", "protocol: ssh or telnet")
	user := flag.String("user", "root", "username")
	pass := flag.String("pass", "1234", "password")
	command := flag.String("cmd", "", "single command to exec (ssh) or run (telnet)")
	script := flag.String("script", "", "file with one shell command per line")
	scan := flag.Bool("scan", false, "handshake only, no credentials (NO_CRED)")
	version := flag.String("version", "SSH-2.0-libssh2_1.8.0", "SSH client version string")
	timeout := flag.Duration("timeout", 30*time.Second, "connection timeout")
	flag.Parse()

	if *proto != "ssh" && *proto != "telnet" {
		log.Fatalf("unknown protocol %q", *proto)
	}
	lines, err := commandLines(*command, *script)
	if err != nil {
		log.Fatal(err)
	}

	nc, err := net.DialTimeout("tcp", *addr, *timeout)
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(*timeout)); err != nil {
		log.Fatalf("setting deadline: %v", err)
	}

	s := loadgen.Script{
		SSH: *proto == "ssh", User: *user, Password: *pass, Commands: lines,
		Client: &loadgen.Client{
			Version: *version, Exec: len(lines) == 1, PTY: len(lines) != 1, Output: os.Stdout,
		},
	}
	switch {
	case *scan:
		s.Category = analysis.NoCred
	case len(lines) == 0:
		s.Category = analysis.NoCmd
	default:
		s.Category = analysis.Cmd
	}
	if err := loadgen.Execute(nc, s); err != nil {
		log.Fatalf("%s: %v", *proto, err)
	}
	fmt.Fprintf(os.Stderr, "%v session complete\n", s.Category)
}

func commandLines(command, script string) ([]string, error) {
	var lines []string
	if command != "" {
		lines = append(lines, command)
	}
	if script != "" {
		f, err := os.Open(script)
		if err != nil {
			return nil, fmt.Errorf("opening script: %w", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "#") {
				lines = append(lines, l)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("reading script: %w", err)
		}
	}
	return lines, nil
}
