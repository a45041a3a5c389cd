package vfs

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// cloneNode is the deep copy Clone used to make, kept as the reference
// the copy-on-write clone is compared against. Every copied node is
// stamped with owner, so the FS holding that tag writes all of them in
// place and no path copy is involved.
func cloneNode(n *Node, owner *tag) *Node {
	c := &Node{
		Name: n.Name, Dir: n.Dir, Mode: n.Mode, UID: n.UID, GID: n.GID,
		Content: append([]byte(nil), n.Content...), MTime: n.MTime,
		owner: owner,
	}
	if n.children != nil {
		c.children = make(map[string]*Node, len(n.children))
		for name, child := range n.children {
			c.children[name] = cloneNode(child, owner)
		}
	}
	return c
}

// deepClone is the reference clone: nothing shared with fs.
func deepClone(fs *FS) *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	owner := new(tag)
	return &FS{root: cloneNode(fs.root, owner), tag: owner, now: fs.now}
}

// dump renders everything List and Stat can say about a filesystem.
func dump(t testing.TB, fs *FS) string {
	t.Helper()
	var b strings.Builder
	var walk func(p string)
	walk = func(p string) {
		n, err := fs.Stat("/", p)
		if err != nil {
			t.Fatalf("Stat(%s): %v", p, err)
		}
		fmt.Fprintf(&b, "%s name=%s dir=%v mode=%o uid=%d gid=%d mtime=%d size=%d content=%q\n",
			p, n.Name, n.Dir, n.Mode, n.UID, n.GID, n.MTime.UnixNano(), n.Size(), n.Content)
		if !n.Dir {
			return
		}
		kids, err := fs.List("/", p)
		if err != nil {
			t.Fatalf("List(%s): %v", p, err)
		}
		for _, k := range kids {
			walk(strings.TrimSuffix(p, "/") + "/" + k.Name)
		}
	}
	walk("/")
	return b.String()
}

// firstDiff names the first line on which two dumps disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("got %q, want %q", g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// cowPaths mixes seeded files and directories with paths that do not
// exist yet, some under directories another op may create or remove.
var cowPaths = []string{
	"/", "/tmp", "/etc", "/bin", "/etc/passwd", "/etc/hostname", "/bin/ls",
	"/bin/busybox", "/var/log/auth.log", "/var/log", "/root/.bashrc",
	"/proc/cpuinfo", "/tmp/a", "/tmp/a/b", "/tmp/a/b/c", "/tmp/.x",
	"/etc/cron.d/job", "/x", "/var/www/html/index.html", "/etc/passwd/y",
	"/usr/bin", "/usr", "/dev/shm/.k", "/root",
}

// randomOp applies one random mutation and describes what came of it.
func randomOp(r *rand.Rand, fs *FS) string {
	p := cowPaths[r.Intn(len(cowPaths))]
	content := []byte(fmt.Sprintf("payload-%d", r.Intn(1000)))
	mode := uint32(r.Intn(0o1000))
	var err error
	var ev FileEvent
	kind := r.Intn(7)
	switch kind {
	case 0:
		err = fs.Mkdir("/", p, mode)
	case 1:
		err = fs.MkdirAll("/", p, mode)
	case 2:
		ev, err = fs.WriteFile("/", p, content, mode)
	case 3:
		ev, err = fs.AppendFile("/", p, content, mode)
	case 4:
		err = fs.Remove("/", p)
	case 5:
		err = fs.RemoveAll("/", p)
	case 6:
		err = fs.Chmod("/", p, mode)
	}
	return fmt.Sprintf("op%d %s: %v %+v", kind, p, err, ev)
}

// TestCloneIsolation is the copy-on-write contract as a property: random
// mutations of one clone behave exactly as they do on a deep copy, and are
// never visible in the template, in a clone made before them, in one made
// after, or in a sibling running its own mutations; the same holds for
// mutations of the template once it has been cloned.
func TestCloneIsolation(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tmpl := New(fixedNow) // BenchmarkClone's template
		pristine := dump(t, tmpl)

		a, refA := tmpl.Clone(), deepClone(tmpl)
		b, refB := tmpl.Clone(), deepClone(tmpl)
		idle := tmpl.Clone()
		// twins returns two generators that draw the same sequence.
		twins := func() (*rand.Rand, *rand.Rand) {
			s := r.Int63()
			return rand.New(rand.NewSource(s)), rand.New(rand.NewSource(s))
		}
		ra, refRa := twins()
		rb, refRb := twins()
		for i, n := 0, 1+r.Intn(40); i < n; i++ {
			// The siblings take turns so each one's appends and path
			// copies land between the other's.
			if got, want := randomOp(ra, a), randomOp(refRa, refA); got != want {
				t.Errorf("seed %d: clone did %q, deep copy %q", seed, got, want)
				return false
			}
			if got, want := randomOp(rb, b), randomOp(refRb, refB); got != want {
				t.Errorf("seed %d: sibling did %q, deep copy %q", seed, got, want)
				return false
			}
		}
		for name, pair := range map[string][2]string{
			"clone vs deep copy":   {dump(t, a), dump(t, refA)},
			"sibling vs deep copy": {dump(t, b), dump(t, refB)},
			"template":             {dump(t, tmpl), pristine},
			"idle clone":           {dump(t, idle), pristine},
			"later clone":          {dump(t, tmpl.Clone()), pristine},
		} {
			if pair[0] != pair[1] {
				t.Errorf("seed %d: %s differ: %s", seed, name, firstDiff(pair[0], pair[1]))
				return false
			}
		}

		// The template is only another holder of the shared nodes: once
		// cloned, its own writes must copy too.
		beforeA := dump(t, a)
		refT := deepClone(tmpl)
		rt, refRt := twins()
		for i := 0; i < 20; i++ {
			if got, want := randomOp(rt, tmpl), randomOp(refRt, refT); got != want {
				t.Errorf("seed %d: template did %q, deep copy %q", seed, got, want)
				return false
			}
		}
		if dump(t, tmpl) != dump(t, refT) || dump(t, idle) != pristine || dump(t, a) != beforeA {
			t.Errorf("seed %d: a write to the cloned template went astray", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneAppendDoesNotAlias covers what the property cannot reach with
// the seed image alone: a shared file whose content has spare capacity
// (grown by appends before the clone), appended to by two holders.
func TestCloneAppendDoesNotAlias(t *testing.T) {
	tmpl := New(fixedNow)
	for i := 0; i < 5; i++ {
		if _, err := tmpl.AppendFile("/var/log", "auth.log", []byte("line\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	shared, err := tmpl.ReadFile("/var/log", "auth.log")
	if err != nil || cap(shared) == len(shared) {
		t.Fatalf("fixture has no spare capacity to alias (len %d cap %d, err %v)", len(shared), cap(shared), err)
	}
	want := string(shared)
	a, b := tmpl.Clone(), tmpl.Clone()
	for fs, tail := range map[*FS]string{a: "A", b: "B", tmpl: "T"} {
		if _, err := fs.AppendFile("/var/log", "auth.log", []byte(tail), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for fs, tail := range map[*FS]string{a: "A", b: "B", tmpl: "T"} {
		if got, _ := fs.ReadFile("/var/log", "auth.log"); string(got) != want+tail {
			t.Errorf("after appending %q the file reads %q", tail, got)
		}
	}
}

// TestCloneConcurrentSessions is many sessions on one template at once
// (meaningful under -race): each clones, mutates and reads while others
// do, and ends where a deep copy given the same ops ends.
func TestCloneConcurrentSessions(t *testing.T) {
	tmpl := New(fixedNow)
	pristine := dump(t, tmpl)
	const sessions = 16
	want := make([]string, sessions)
	for i := range want {
		ref := deepClone(tmpl)
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 30; j++ {
			randomOp(r, ref)
		}
		want[i] = dump(t, ref)
	}
	got := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := tmpl.Clone()
			r := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 30; j++ {
				randomOp(r, fs)
				fs.Exists("/", "/etc/hostname") // a read between writes, as ls and cat are
			}
			got[i] = dump(t, fs)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("session %d diverged from its deep copy", i)
		}
	}
	if dump(t, tmpl) != pristine {
		t.Error("sessions changed the template")
	}
}

// TestSessionFSBudget is the open-session sibling of analysis's
// TestStateBudget: what one authenticated session keeps resident for its
// filesystem before it writes anything (the deep copy was 15,296 B in 177
// objects), and how little the first write copies.
func TestSessionFSBudget(t *testing.T) {
	tmpl := New(fixedNow)
	const n = 4096
	clones := make([]*FS, n)
	liveHeap := func() (uint64, uint64) {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc, m.HeapObjects
	}
	b0, o0 := liveHeap()
	for i := range clones {
		clones[i] = tmpl.Clone()
	}
	b1, o1 := liveHeap()
	bytesPer, objectsPer := float64(b1-b0)/n, float64(o1-o0)/n
	t.Logf("%.0f B and %.2f heap objects per Clone before the first write", bytesPer, objectsPer)
	if bytesPer > 256 || objectsPer > 4 {
		t.Errorf("a Clone costs %.0f B and %.2f objects, budget 256 B and 4", bytesPer, objectsPer)
	}
	runtime.KeepAlive(clones)

	// A dropper's first write lands in /tmp: the root and /tmp are copied,
	// every other node is still the template's.
	c := clones[0]
	if _, err := c.WriteFile("/tmp", ".x", []byte("payload"), 0o755); err != nil {
		t.Fatal(err)
	}
	same := func(p string) bool {
		a, errA := tmpl.Stat("/", p)
		b, errB := c.Stat("/", p)
		if errA != nil || errB != nil {
			t.Fatalf("Stat(%s): %v, %v", p, errA, errB)
		}
		return a == b
	}
	for _, p := range []string{"/", "/tmp"} {
		if same(p) {
			t.Errorf("%s is still the template's node after a write under it", p)
		}
	}
	top, err := tmpl.List("/", "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range top {
		if d.Name != "tmp" && !same("/"+d.Name) {
			t.Errorf("/%s was copied by a write to /tmp", d.Name)
		}
	}
	for _, p := range []string{"/etc/passwd", "/bin/busybox", "/var/log/auth.log"} {
		if !same(p) {
			t.Errorf("%s was copied by a write to /tmp", p)
		}
	}
}
