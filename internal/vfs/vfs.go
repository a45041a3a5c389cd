// Package vfs implements the honeypot's fake filesystem, mirroring
// Cowrie's "honeyfs": an in-memory Unix-like tree pre-seeded with a
// plausible Linux system image. Every file creation or modification is
// recorded with a SHA-256 hash of the file content — these hashes are the
// campaign signatures the paper analyzes in Section 8 (64,004 unique
// hashes over 15 months).
package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by filesystem operations.
var (
	ErrNotExist   = errors.New("vfs: no such file or directory")
	ErrExist      = errors.New("vfs: file exists")
	ErrNotDir     = errors.New("vfs: not a directory")
	ErrIsDir      = errors.New("vfs: is a directory")
	ErrPermission = errors.New("vfs: permission denied")
)

// FileOp distinguishes creations from modifications in the event stream.
type FileOp uint8

// FileOp values.
const (
	OpCreate FileOp = iota
	OpModify
)

func (op FileOp) String() string {
	if op == OpCreate {
		return "create"
	}
	return "modify"
}

// FileEvent records one file creation or modification, hash included.
// This is the unit the paper counts: "about one third [of command
// sessions] create or modify files, for which the honeypot records a hash
// of the file content".
type FileEvent struct {
	Path string
	Op   FileOp
	Hash string // hex SHA-256 of content
	Size int
	Time time.Time
}

// Node is one entry in the tree. A node may be shared by a template and
// every filesystem cloned from it, so it is read-only outside this
// package, and inside it only the FS whose tag it carries writes it.
type Node struct {
	Name    string
	Dir     bool
	Mode    uint32 // permission bits
	UID     int
	GID     int
	Content []byte
	MTime   time.Time

	children map[string]*Node
	owner    *tag // the FS that made this node and may write it in place
}

// tag identifies the nodes one FS owns. It has a size so that every
// new(tag) is a distinct address.
type tag struct{ _ byte }

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.Dir }

// Size returns the content length for files, 4096 for directories.
func (n *Node) Size() int {
	if n.Dir {
		return 4096
	}
	return len(n.Content)
}

// FS is a mutable fake filesystem. It is safe for concurrent use; each
// honeypot session gets its own FS (cloned from a template) so intruders
// cannot observe each other.
//
// Clones are copy-on-write. A node is written in place only by the FS
// whose tag it carries; every other node is immutable, whoever else can
// reach it. Before a write, the path from the root to the node is
// replaced by copies this FS owns (writable), so what a clone changes is
// reachable from its own root only.
type FS struct {
	mu     sync.Mutex
	root   *Node
	tag    *tag // nil until the first write after New or Clone
	events []FileEvent
	now    func() time.Time
}

// New returns a filesystem pre-seeded with the baseline Linux image.
// The now function supplies timestamps for recorded events; pass nil for
// time.Now.
func New(now func() time.Time) *FS {
	if now == nil {
		now = time.Now
	}
	fs := &FS{tag: new(tag), now: now}
	fs.root = &Node{Name: "/", Dir: true, Mode: 0o755, children: map[string]*Node{}, owner: fs.tag}
	seed(fs)
	return fs
}

// Events returns the file events recorded so far, in order.
func (fs *FS) Events() []FileEvent {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]FileEvent(nil), fs.events...)
}

// normalize resolves p against cwd into a clean absolute path.
func normalize(cwd, p string) string {
	if !strings.HasPrefix(p, "/") {
		p = path.Join(cwd, p)
	}
	return path.Clean(p)
}

// Normalize resolves p against cwd into a clean absolute path. It is the
// exported form used by the shell for cd and prompt handling.
func Normalize(cwd, p string) string { return normalize(cwd, p) }

func (fs *FS) lookup(abs string) (*Node, error) {
	if abs == "/" {
		return fs.root, nil
	}
	parts := strings.Split(strings.TrimPrefix(abs, "/"), "/")
	n := fs.root
	for _, part := range parts {
		if !n.Dir {
			return nil, ErrNotDir
		}
		child, ok := n.children[part]
		if !ok {
			return nil, ErrNotExist
		}
		n = child
	}
	return n, nil
}

// own returns n if this FS may write it in place, else a copy that it
// may: the copy shares n's children and content, and clamps the content's
// capacity so that an append reallocates instead of writing into an array
// other filesystems can see.
func (fs *FS) own(n *Node) *Node {
	if n.owner == fs.tag {
		return n
	}
	c := *n
	c.owner = fs.tag
	c.Content = n.Content[:len(n.Content):len(n.Content)]
	c.children = maps.Clone(n.children)
	return &c
}

// writable returns the node lookup has just found at abs, after replacing
// every node on the way to it that this FS does not own with a copy that
// it does. Mutators validate with lookup first, so an operation that
// fails copies nothing.
func (fs *FS) writable(abs string) *Node {
	if fs.tag == nil {
		fs.tag = new(tag)
	}
	fs.root = fs.own(fs.root)
	n := fs.root
	for part, rest := "", strings.TrimPrefix(abs, "/"); rest != ""; {
		part, rest, _ = strings.Cut(rest, "/")
		child := fs.own(n.children[part])
		n.children[part] = child
		n = child
	}
	return n
}

// newDir returns an empty directory owned by this FS, which must already
// hold a tag: call it after writable.
func (fs *FS) newDir(name string, mode uint32) *Node {
	return &Node{Name: name, Dir: true, Mode: mode, MTime: fs.now(), children: map[string]*Node{}, owner: fs.tag}
}

// Stat returns the node at the path (resolved against cwd).
func (fs *FS) Stat(cwd, p string) (*Node, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.lookup(normalize(cwd, p))
}

// Exists reports whether a path exists.
func (fs *FS) Exists(cwd, p string) bool {
	_, err := fs.Stat(cwd, p)
	return err == nil
}

// ReadFile returns the content of a file.
func (fs *FS) ReadFile(cwd, p string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(normalize(cwd, p))
	if err != nil {
		return nil, err
	}
	if n.Dir {
		return nil, ErrIsDir
	}
	return n.Content, nil
}

// List returns the names in a directory, sorted.
func (fs *FS) List(cwd, p string) ([]*Node, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(normalize(cwd, p))
	if err != nil {
		return nil, err
	}
	if !n.Dir {
		return []*Node{n}, nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Node, len(names))
	for i, name := range names {
		out[i] = n.children[name]
	}
	return out, nil
}

// Mkdir creates a single directory.
func (fs *FS) Mkdir(cwd, p string, mode uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	abs := normalize(cwd, p)
	if abs == "/" {
		return ErrExist
	}
	dir, base := path.Split(abs)
	parent, err := fs.lookup(path.Clean(dir))
	if err != nil {
		return err
	}
	if !parent.Dir {
		return ErrNotDir
	}
	if _, ok := parent.children[base]; ok {
		return ErrExist
	}
	parent = fs.writable(path.Clean(dir))
	parent.children[base] = fs.newDir(base, mode)
	return nil
}

// MkdirAll creates a directory and any missing parents. Existing
// directories are left untouched.
func (fs *FS) MkdirAll(cwd, p string, mode uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	abs := normalize(cwd, p)
	if abs == "/" {
		return nil
	}
	parts := strings.Split(strings.TrimPrefix(abs, "/"), "/")
	n := fs.root
	for i, part := range parts {
		if !n.Dir {
			return ErrNotDir
		}
		child, ok := n.children[part]
		if !ok {
			// Everything before parts[i] exists; the rest is new.
			n = fs.writable("/" + strings.Join(parts[:i], "/"))
			for _, part := range parts[i:] {
				child = fs.newDir(part, mode)
				n.children[part] = child
				n = child
			}
			return nil
		}
		n = child
	}
	if !n.Dir {
		return ErrNotDir
	}
	return nil
}

// WriteFile creates or replaces a file, records a FileEvent with the
// SHA-256 of the content, and returns the event.
func (fs *FS) WriteFile(cwd, p string, content []byte, mode uint32) (FileEvent, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writeLocked(cwd, p, content, mode, false)
}

// AppendFile appends to a file (creating it if needed) and records a
// FileEvent.
func (fs *FS) AppendFile(cwd, p string, content []byte, mode uint32) (FileEvent, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writeLocked(cwd, p, content, mode, true)
}

func (fs *FS) writeLocked(cwd, p string, content []byte, mode uint32, appendTo bool) (FileEvent, error) {
	abs := normalize(cwd, p)
	dir, base := path.Split(abs)
	if base == "" {
		return FileEvent{}, ErrIsDir
	}
	parent, err := fs.lookup(path.Clean(dir))
	if err != nil {
		return FileEvent{}, err
	}
	if !parent.Dir {
		return FileEvent{}, ErrNotDir
	}
	op := OpModify
	n, ok := parent.children[base]
	if ok && n.Dir {
		return FileEvent{}, ErrIsDir
	}
	parent = fs.writable(path.Clean(dir))
	if ok {
		n = fs.own(n)
	} else {
		op = OpCreate
		n = &Node{Name: base, Mode: mode, owner: fs.tag}
	}
	parent.children[base] = n
	if appendTo {
		n.Content = append(n.Content, content...)
	} else {
		n.Content = append([]byte(nil), content...)
	}
	n.MTime = fs.now()
	ev := FileEvent{
		Path: abs,
		Op:   op,
		Hash: HashContent(n.Content),
		Size: len(n.Content),
		Time: n.MTime,
	}
	fs.events = append(fs.events, ev)
	return ev, nil
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(cwd, p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	abs := normalize(cwd, p)
	if abs == "/" {
		return ErrPermission
	}
	dir, base := path.Split(abs)
	parent, err := fs.lookup(path.Clean(dir))
	if err != nil {
		return err
	}
	n, ok := parent.children[base]
	if !ok {
		return ErrNotExist
	}
	if n.Dir && len(n.children) > 0 {
		return fmt.Errorf("vfs: directory not empty")
	}
	delete(fs.writable(path.Clean(dir)).children, base)
	return nil
}

// RemoveAll deletes a path recursively; missing paths are not an error.
func (fs *FS) RemoveAll(cwd, p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	abs := normalize(cwd, p)
	if abs == "/" {
		return ErrPermission
	}
	dir, base := path.Split(abs)
	parent, err := fs.lookup(path.Clean(dir))
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return err
	}
	if _, ok := parent.children[base]; ok {
		delete(fs.writable(path.Clean(dir)).children, base)
	}
	return nil
}

// Chmod changes a node's permission bits.
func (fs *FS) Chmod(cwd, p string, mode uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	abs := normalize(cwd, p)
	if _, err := fs.lookup(abs); err != nil {
		return err
	}
	fs.writable(abs).Mode = mode
	return nil
}

// HashContent returns the hex SHA-256 of content — the hash format the
// collector stores for every file create/modify.
func HashContent(content []byte) string {
	sum := sha256.Sum256(content)
	return hex.EncodeToString(sum[:])
}

// Clone returns a filesystem with the same content and an empty event
// log, used to give each session a pristine system image. It copies
// nothing: the clone starts on the receiver's root, and the receiver gives
// up its tag, so from here on each side copies a path before it first
// writes to it and neither can change what the other sees.
func (fs *FS) Clone() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tag = nil
	return &FS{root: fs.root, now: fs.now}
}
