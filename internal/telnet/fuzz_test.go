package telnet

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// scriptConn is a net.Conn that plays a fixed byte string to its reader,
// step bytes per Read (0: as much as fits), then EOF, and counts and
// keeps what is written to it.
type scriptConn struct {
	net.Conn // nil: only Read, Write and Close are ever called
	in       []byte
	step     int

	reads, writes int
	out           []byte
}

func (s *scriptConn) Read(p []byte) (int, error) {
	s.reads++
	if len(s.in) == 0 {
		return 0, io.EOF
	}
	if s.step > 0 && s.step < len(p) {
		p = p[:s.step]
	}
	n := copy(p, s.in)
	s.in = s.in[n:]
	return n, nil
}

func (s *scriptConn) Write(p []byte) (int, error) {
	s.writes++
	s.out = append(s.out, p...)
	return len(p), nil
}

func (s *scriptConn) Close() error { return nil }

// readLines drives a server-role Conn the way the login flow and the
// shell loop do — ReadLine until it fails — and checks what must hold
// whatever the peer sends. It returns the lines and the conn, which holds
// the replies.
func readLines(t *testing.T, data []byte, step int) (lines []string, s *scriptConn) {
	t.Helper()
	s = &scriptConn{in: data, step: step}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewConn(s, true)
	for {
		line, err := c.ReadLine()
		if err != nil {
			break
		}
		if len(line) > 4096 {
			t.Fatalf("line of %d bytes", len(line))
		}
		lines = append(lines, line)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// Lines are copied out once and the slice holding them doubles; the
	// Conn and its write buffer are the constant.
	if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+64<<10); spent > limit {
		t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), spent, limit)
	}
	if len(s.out) > len(data) {
		t.Fatalf("%d bytes in drew %d bytes out", len(data), len(s.out))
	}
	if s.writes > s.reads+1 {
		t.Fatalf("%d Writes for %d Reads", s.writes, s.reads)
	}
	return lines, s
}

// telnetSeeds are the inputs FuzzTelnetConn starts from; go test runs them.
func telnetSeeds() map[string][]byte {
	ack := []byte{cmdIAC, cmdDO, optEcho, cmdIAC, cmdDO, optSuppressGoAhead}
	// What a parent-commit client sent a parent-commit server during one
	// login: every WILL the server repeated was acknowledged again.
	reack := bytes.Join([][]byte{ack, []byte("root\r\n"), ack, ack, []byte("1234\r\n"), ack, ack, []byte("uname -a\r\n"), ack, []byte("exit\r\n")}, nil)
	return map[string][]byte{
		"do-storm":      append(bytes.Repeat([]byte{cmdIAC, cmdDO, 31}, 341), '\n'),
		"will-storm":    append(bytes.Repeat([]byte{cmdIAC, cmdWILL, 24, cmdIAC, cmdWONT, 24}, 170), '\n'),
		"reack-loop":    reack,
		"sb-escaped":    {cmdIAC, cmdSB, 31, cmdIAC, cmdIAC, cmdSE, 0, 80, cmdIAC, cmdSE, 'x', '\n'},
		"sb-unfinished": append([]byte{cmdIAC, cmdSB, 24}, bytes.Repeat([]byte("xterm"), 300)...),
		"nul-backspace": []byte("\x7f\bro\x00ot\x7f\x7f\x7f\x7f\x7froot\r\x00pa\x00ss\bs\r\nexit\n"),
		"ff-data":       {'a', cmdIAC, cmdIAC, 'b', cmdIAC, cmdIAC, cmdIAC, cmdIAC, '\r', '\n', cmdIAC},
		"long-line":     append(bytes.Repeat([]byte("A"), 5000), '\r', '\n'),
		"bare-cr":       []byte("one\rtwo\r\rthree\n\n"),
		"iac-noise":     {cmdIAC, 241, cmdIAC, 246, 'o', 'k', cmdIAC, cmdDO, '\n', cmdIAC, cmdWILL},
		"empty":         nil,
	}
}

// FuzzTelnetConn: whatever bytes arrive and however they are cut into
// reads, a server-role Conn does not panic, returns no line over 4,096
// bytes, allocates in proportion to the input, never says more than it
// was told (so it cannot be used to amplify), writes at most once per
// read, and decodes the same lines and the same replies as when the input
// arrives whole — the IAC state machine carries across reads.
func FuzzTelnetConn(f *testing.F) {
	for _, data := range telnetSeeds() {
		f.Add(data, uint8(0))
		f.Add(data, uint8(1))
		f.Add(data, uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		lines, cut := readLines(t, data, int(step))
		wholeLines, whole := readLines(t, data, 0)
		if !reflect.DeepEqual(lines, wholeLines) || !bytes.Equal(cut.out, whole.out) {
			t.Fatalf("%d bytes per Read decoded %q / % x, whole %q / % x", step, lines, cut.out, wholeLines, whole.out)
		}
	})
}

// TestSeedsDecode pins what the seeds mean, so the fuzz target's
// invariants are not the only thing said about them.
func TestSeedsDecode(t *testing.T) {
	seeds := telnetSeeds()
	for name, want := range map[string]struct {
		lines   []string
		replies int // bytes
		writes  int // when the input arrives in one segment per 1 KiB
	}{
		"do-storm":      {[]string{""}, 341 * 3, 1},
		"reack-loop":    {[]string{"root", "1234", "uname -a", "exit"}, 6, 1},
		"sb-escaped":    {[]string{"x"}, 0, 0},
		"sb-unfinished": {nil, 0, 0},
		"nul-backspace": {[]string{"root", "pass", "exit"}, 0, 0},
		"ff-data":       {[]string{"a\xffb\xff\xff"}, 0, 0},
		"long-line":     {[]string{strings.Repeat("A", 4096), strings.Repeat("A", 904)}, 0, 0},
		"bare-cr":       {[]string{"one", "two", "", "three", ""}, 0, 0},
		"iac-noise":     {[]string{"ok"}, 3, 1}, // its LF is the option byte of the DO
	} {
		lines, s := readLines(t, seeds[name], 0)
		if !reflect.DeepEqual(lines, want.lines) {
			t.Errorf("%s: lines %q, want %q", name, lines, want.lines)
		}
		if len(s.out) != want.replies || s.writes != want.writes {
			t.Errorf("%s: %d reply bytes in %d Writes, want %d in %d", name, len(s.out), s.writes, want.replies, want.writes)
		}
	}
}
