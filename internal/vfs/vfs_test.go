package vfs

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func fixedNow() time.Time { return time.Date(2022, 6, 1, 12, 0, 0, 0, time.UTC) }

func TestSeedImage(t *testing.T) {
	fs := New(fixedNow)
	for _, p := range []string{"/etc/passwd", "/proc/cpuinfo", "/bin/wget", "/tmp", "/root/.bashrc"} {
		if !fs.Exists("/", p) {
			t.Errorf("seed image missing %s", p)
		}
	}
	content, err := fs.ReadFile("/", "/etc/passwd")
	if err != nil || !strings.Contains(string(content), "root:x:0:0") {
		t.Errorf("passwd content wrong: %q err=%v", content, err)
	}
}

func TestWriteFileRecordsEvents(t *testing.T) {
	fs := New(fixedNow)
	ev, err := fs.WriteFile("/root", "payload.sh", []byte("#!/bin/sh\necho pwned\n"), 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Op != OpCreate {
		t.Errorf("Op = %v, want create", ev.Op)
	}
	if ev.Path != "/root/payload.sh" {
		t.Errorf("Path = %s", ev.Path)
	}
	if ev.Hash != HashContent([]byte("#!/bin/sh\necho pwned\n")) {
		t.Error("hash mismatch")
	}
	ev2, err := fs.WriteFile("/root", "payload.sh", []byte("changed"), 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Op != OpModify {
		t.Errorf("second write Op = %v, want modify", ev2.Op)
	}
	if ev2.Hash == ev.Hash {
		t.Error("modified content must hash differently")
	}
}

func TestAppendFile(t *testing.T) {
	fs := New(fixedNow)
	if _, err := fs.AppendFile("/root", ".ssh/authorized_keys", []byte("ssh-rsa AAAA...\n"), 0o600); !errors.Is(err, ErrNotExist) {
		t.Fatalf("append into missing dir: err = %v, want ErrNotExist", err)
	}
	if err := fs.MkdirAll("/root", ".ssh", 0o700); err != nil {
		t.Fatal(err)
	}
	ev, err := fs.AppendFile("/root", ".ssh/authorized_keys", []byte("ssh-rsa AAAA key1\n"), 0o600)
	if err != nil || ev.Op != OpCreate {
		t.Fatalf("first append: ev=%+v err=%v", ev, err)
	}
	ev2, err := fs.AppendFile("/root", ".ssh/authorized_keys", []byte("ssh-rsa BBBB key2\n"), 0o600)
	if err != nil || ev2.Op != OpModify {
		t.Fatalf("second append: ev=%+v err=%v", ev2, err)
	}
	content, _ := fs.ReadFile("/", "/root/.ssh/authorized_keys")
	if !strings.Contains(string(content), "key1") || !strings.Contains(string(content), "key2") {
		t.Errorf("appended content wrong: %q", content)
	}
}

func TestRelativePathsAndDotDot(t *testing.T) {
	fs := New(fixedNow)
	if _, err := fs.WriteFile("/var/log", "../tmp/x", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/", "/var/tmp/x") {
		t.Error("relative .. path not resolved")
	}
	if got := Normalize("/root", "../etc//passwd"); got != "/etc/passwd" {
		t.Errorf("Normalize = %s", got)
	}
	if got := Normalize("/", "../../.."); got != "/" {
		t.Errorf("escaping root = %s, want /", got)
	}
}

func TestListSorted(t *testing.T) {
	fs := New(fixedNow)
	nodes, err := fs.List("/", "/etc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].Name >= nodes[i].Name {
			t.Errorf("listing not sorted: %s >= %s", nodes[i-1].Name, nodes[i].Name)
		}
	}
	// Listing a file returns the file itself.
	nodes, err = fs.List("/", "/etc/passwd")
	if err != nil || len(nodes) != 1 || nodes[0].Name != "passwd" {
		t.Errorf("List(file) = %v, %v", nodes, err)
	}
}

func TestMkdirErrors(t *testing.T) {
	fs := New(fixedNow)
	if err := fs.Mkdir("/", "/etc", 0o755); !errors.Is(err, ErrExist) {
		t.Errorf("Mkdir existing = %v, want ErrExist", err)
	}
	if err := fs.Mkdir("/", "/nope/sub", 0o755); !errors.Is(err, ErrNotExist) {
		t.Errorf("Mkdir missing parent = %v, want ErrNotExist", err)
	}
	if err := fs.Mkdir("/", "/etc/passwd/sub", 0o755); !errors.Is(err, ErrNotDir) {
		t.Errorf("Mkdir under file = %v, want ErrNotDir", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New(fixedNow)
	if err := fs.Remove("/", "/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/", "/etc/passwd") {
		t.Error("file still exists after Remove")
	}
	if err := fs.Remove("/", "/etc"); err == nil {
		t.Error("removing non-empty dir should fail")
	}
	if err := fs.Remove("/", "/"); !errors.Is(err, ErrPermission) {
		t.Errorf("removing / = %v, want ErrPermission", err)
	}
	if err := fs.RemoveAll("/", "/etc"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/", "/etc") {
		t.Error("dir still exists after RemoveAll")
	}
	if err := fs.RemoveAll("/", "/never/was/here"); err != nil {
		t.Errorf("RemoveAll missing = %v, want nil", err)
	}
}

func TestChmod(t *testing.T) {
	fs := New(fixedNow)
	if err := fs.Chmod("/", "/etc/passwd", 0o777); err != nil {
		t.Fatal(err)
	}
	n, _ := fs.Stat("/", "/etc/passwd")
	if n.Mode != 0o777 {
		t.Errorf("Mode = %o, want 777", n.Mode)
	}
	if err := fs.Chmod("/", "/missing", 0o777); !errors.Is(err, ErrNotExist) {
		t.Errorf("Chmod missing = %v", err)
	}
}

func TestReadFileErrors(t *testing.T) {
	fs := New(fixedNow)
	if _, err := fs.ReadFile("/", "/etc"); !errors.Is(err, ErrIsDir) {
		t.Errorf("ReadFile(dir) = %v, want ErrIsDir", err)
	}
	if _, err := fs.ReadFile("/", "/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("ReadFile(missing) = %v, want ErrNotExist", err)
	}
	if _, err := fs.ReadFile("/", "/etc/passwd/x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("ReadFile(under file) = %v, want ErrNotDir", err)
	}
}

func TestHashContentStable(t *testing.T) {
	h1 := HashContent([]byte("abc"))
	h2 := HashContent([]byte("abc"))
	if h1 != h2 || len(h1) != 64 {
		t.Errorf("HashContent unstable or wrong length: %s vs %s", h1, h2)
	}
	if HashContent([]byte("abd")) == h1 {
		t.Error("different content must hash differently")
	}
}

func TestNodeSize(t *testing.T) {
	fs := New(fixedNow)
	d, _ := fs.Stat("/", "/etc")
	if d.Size() != 4096 || !d.IsDir() {
		t.Errorf("dir size/type wrong: %d", d.Size())
	}
	f, _ := fs.Stat("/", "/etc/hostname")
	if f.Size() != len("svr04\n") || f.IsDir() {
		t.Errorf("file size wrong: %d", f.Size())
	}
}

// Property: Normalize is idempotent and always yields an absolute clean path.
func TestQuickNormalize(t *testing.T) {
	f := func(cwdRaw, pRaw string) bool {
		cwd := "/" + strings.Trim(strings.ReplaceAll(cwdRaw, "\x00", ""), "/")
		p := strings.ReplaceAll(pRaw, "\x00", "")
		got := Normalize(cwd, p)
		if !strings.HasPrefix(got, "/") {
			return false
		}
		return Normalize("/", got) == got
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WriteFile then ReadFile round-trips arbitrary content.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	fs := New(fixedNow)
	f := func(content []byte) bool {
		if _, err := fs.WriteFile("/tmp", "blob", content, 0o644); err != nil {
			return false
		}
		got, err := fs.ReadFile("/tmp", "blob")
		if err != nil || len(got) != len(content) {
			return false
		}
		for i := range got {
			if got[i] != content[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClone(b *testing.B) {
	fs := New(fixedNow)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs.Clone()
	}
}

func BenchmarkWriteFile(b *testing.B) {
	fs := New(fixedNow)
	content := []byte(strings.Repeat("x", 512))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.WriteFile("/tmp", "bench", content, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
