package shell

import (
	"bytes"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"honeyfarm/internal/vfs"
)

// builtinFunc executes one emulated command. stdin carries piped input;
// output goes to out; the return value is the exit status.
type builtinFunc func(sh *Shell, args []string, stdin []byte, out *bytes.Buffer) int

// builtins maps every "known" command — the set the honeypot emulates.
// Commands outside this map are recorded verbatim as unknown, exactly as
// Cowrie does ("the honeypot records each command executed by the client
// in a list of known or unknown commands", Section 4).
var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		"cat":        bCat,
		"echo":       bEcho,
		"ls":         bLs,
		"cd":         bCd,
		"pwd":        bPwd,
		"uname":      bUname,
		"free":       bFree,
		"w":          bW,
		"who":        bWho,
		"id":         bID,
		"whoami":     bWhoami,
		"hostname":   bHostname,
		"ps":         bPs,
		"top":        bTop,
		"nproc":      bNproc,
		"lscpu":      bLscpu,
		"uptime":     bUptime,
		"wget":       bWget,
		"curl":       bCurl,
		"tftp":       bTftp,
		"ftpget":     bFtpget,
		"scp":        bScp,
		"chmod":      bChmod,
		"chown":      bOk,
		"chpasswd":   bChpasswd,
		"passwd":     bPasswd,
		"mkdir":      bMkdir,
		"rm":         bRm,
		"rmdir":      bRmdir,
		"cp":         bCp,
		"mv":         bMv,
		"touch":      bTouch,
		"head":       bHead,
		"tail":       bTail,
		"grep":       bGrep,
		"egrep":      bGrep,
		"wc":         bWc,
		"which":      bWhich,
		"history":    bHistory,
		"crontab":    bCrontab,
		"kill":       bOk,
		"pkill":      bOk,
		"df":         bDf,
		"du":         bDu,
		"mount":      bMount,
		"dd":         bDd,
		"sync":       bOk,
		"sleep":      bOk,
		"export":     bExport,
		"unset":      bUnset,
		"env":        bEnv,
		"set":        bEnv,
		"sh":         bSh,
		"bash":       bSh,
		"exit":       bExit,
		"logout":     bExit,
		"enable":     bOk,
		"system":     bOk,
		"shell":      bOk,
		"linuxshell": bOk,
		"yes":        bYes,
		"awk":        bAwk,
		"ulimit":     bOk,
		"ifconfig":   bIfconfig,
		"ip":         bIfconfig,
		"netstat":    bNetstat,
		"ss":         bNetstat,
		"uptime2":    bUptime,
		"busybox":    bBusybox,
	}
}

func bOk(*Shell, []string, []byte, *bytes.Buffer) int { return 0 }

func bCat(sh *Shell, args []string, stdin []byte, out *bytes.Buffer) int {
	if len(args) == 0 {
		out.Write(stdin)
		return 0
	}
	rc := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		content, err := sh.FS.ReadFile(sh.CWD, a)
		if err != nil {
			fmt.Fprintf(out, "cat: %s: %s\n", a, shellErr(err))
			rc = 1
			continue
		}
		out.Write(content)
	}
	return rc
}

func bEcho(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	noNewline := false
	interpret := false
	i := 0
	for ; i < len(args); i++ {
		switch args[i] {
		case "-n":
			noNewline = true
		case "-e":
			interpret = true
		case "-ne", "-en":
			noNewline, interpret = true, true
		default:
			goto body
		}
	}
body:
	s := strings.Join(args[i:], " ")
	if interpret {
		s = expandEscapes(s)
	}
	out.WriteString(s)
	if !noNewline {
		out.WriteByte('\n')
	}
	return 0
}

// expandEscapes interprets echo -e escapes, including \xHH hex bytes —
// bots use `echo -ne "\x7f\x45..."` to drop binary payloads through the
// shell, producing the file hashes the paper tracks.
func expandEscapes(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '\\':
			b.WriteByte('\\')
		case '0', '1', '2', '3', '4', '5', '6', '7':
			// Octal escapes: backslash-0nnn (bash) and backslash-nnn (busybox).
			j := i
			if s[i] == '0' {
				j++
			}
			k := j
			for k < len(s) && k < j+3 && s[k] >= '0' && s[k] <= '7' {
				k++
			}
			if v, err := strconv.ParseUint(s[j:k], 8, 8); err == nil && k > j {
				b.WriteByte(byte(v))
				i = k - 1
			} else if s[i] == '0' {
				b.WriteByte(0)
			}
		case 'x':
			if i+2 < len(s) {
				if v, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
					b.WriteByte(byte(v))
					i += 2
					continue
				}
			}
			b.WriteString("\\x")
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func bLs(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	long := false
	all := false
	var paths []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			if strings.Contains(a, "l") {
				long = true
			}
			if strings.Contains(a, "a") {
				all = true
			}
			continue
		}
		paths = append(paths, a)
	}
	if len(paths) == 0 {
		paths = []string{"."}
	}
	rc := 0
	for _, p := range paths {
		nodes, err := sh.FS.List(sh.CWD, p)
		if err != nil {
			fmt.Fprintf(out, "ls: cannot access '%s': %s\n", p, shellErr(err))
			rc = 2
			continue
		}
		for _, n := range nodes {
			if !all && strings.HasPrefix(n.Name, ".") {
				continue
			}
			if long {
				typ := "-"
				if n.IsDir() {
					typ = "d"
				}
				fmt.Fprintf(out, "%s%s 1 root root %8d %s %s\n",
					typ, modeString(n.Mode), n.Size(), n.MTime.Format("Jan _2 15:04"), n.Name)
			} else {
				fmt.Fprintln(out, n.Name)
			}
		}
	}
	return rc
}

func modeString(mode uint32) string {
	const rwx = "rwxrwxrwx"
	var b [9]byte
	for i := 0; i < 9; i++ {
		if mode&(1<<uint(8-i)) != 0 {
			b[i] = rwx[i]
		} else {
			b[i] = '-'
		}
	}
	return string(b[:])
}

func bCd(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	target := sh.Env["HOME"]
	if len(args) > 0 {
		target = args[0]
	}
	abs := vfs.Normalize(sh.CWD, target)
	n, err := sh.FS.Stat("/", abs)
	if err != nil {
		fmt.Fprintf(out, "-bash: cd: %s: %s\n", target, shellErr(err))
		return 1
	}
	if !n.IsDir() {
		fmt.Fprintf(out, "-bash: cd: %s: Not a directory\n", target)
		return 1
	}
	sh.CWD = abs
	return 0
}

func bPwd(sh *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintln(out, sh.CWD)
	return 0
}

func bUname(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	const (
		kernel  = "Linux"
		release = "4.19.0-18-amd64"
		machine = "x86_64"
		version = "#1 SMP Debian 4.19.208-1 (2021-09-29)"
	)
	if len(args) == 0 {
		fmt.Fprintln(out, kernel)
		return 0
	}
	var parts []string
	for _, a := range args {
		switch a {
		case "-a", "--all":
			parts = []string{kernel, sh.Host, release, version, machine, "GNU/Linux"}
		case "-s":
			parts = append(parts, kernel)
		case "-n":
			parts = append(parts, sh.Host)
		case "-r":
			parts = append(parts, release)
		case "-m", "-p":
			parts = append(parts, machine)
		case "-v":
			parts = append(parts, version)
		}
	}
	fmt.Fprintln(out, strings.Join(parts, " "))
	return 0
}

func bFree(_ *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	unit := 1024 // -k default
	for _, a := range args {
		if a == "-m" {
			unit = 1024 * 1024
		}
		if a == "-g" {
			unit = 1024 * 1024 * 1024
		}
	}
	total, used, free := 1039198208/unit, 350000128/unit, 689198080/unit
	fmt.Fprintf(out, "              total        used        free      shared  buff/cache   available\n")
	fmt.Fprintf(out, "Mem:    %11d %11d %11d %11d %11d %11d\n", total, used, free, 0, 18*1024*1024/unit, free)
	fmt.Fprintf(out, "Swap:   %11d %11d %11d\n", 0, 0, 0)
	return 0
}

func bW(sh *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, " 12:01:32 up 16 days, 14:02,  1 user,  load average: 0.00, 0.01, 0.05\n")
	fmt.Fprintf(out, "USER     TTY      FROM             LOGIN@   IDLE   JCPU   PCPU WHAT\n")
	fmt.Fprintf(out, "%-8s pts/0    10.0.0.2         12:01    0.00s  0.02s  0.00s w\n", sh.User)
	return 0
}

func bWho(sh *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "%-8s pts/0        2022-06-01 12:01 (10.0.0.2)\n", sh.User)
	return 0
}

func bID(sh *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "uid=0(%s) gid=0(root) groups=0(root)\n", sh.User)
	return 0
}

func bWhoami(sh *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintln(out, sh.User)
	return 0
}

func bHostname(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sh.Host = args[0]
		return 0
	}
	fmt.Fprintln(out, sh.Host)
	return 0
}

func bPs(_ *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "  PID TTY          TIME CMD\n")
	fmt.Fprintf(out, "    1 ?        00:00:02 systemd\n")
	fmt.Fprintf(out, "  412 ?        00:00:00 sshd\n")
	fmt.Fprintf(out, " 8761 pts/0    00:00:00 bash\n")
	fmt.Fprintf(out, " 8764 pts/0    00:00:00 ps\n")
	return 0
}

func bTop(sh *Shell, args []string, stdin []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "top - 12:01:32 up 16 days, 14:02,  1 user,  load average: 0.00, 0.01, 0.05\n")
	fmt.Fprintf(out, "Tasks: 120 total,   1 running, 119 sleeping,   0 stopped,   0 zombie\n")
	return bPs(sh, args, stdin, out)
}

func bNproc(_ *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintln(out, 1)
	return 0
}

func bLscpu(_ *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "Architecture:        x86_64\nCPU op-mode(s):      32-bit, 64-bit\nCPU(s):              1\n")
	fmt.Fprintf(out, "Model name:          Intel(R) Core(TM) i5-8250U CPU @ 1.60GHz\n")
	return 0
}

func bUptime(_ *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, " 12:01:32 up 16 days, 14:02,  1 user,  load average: 0.00, 0.01, 0.05\n")
	return 0
}

// download fetches a URI and writes it into the fake filesystem,
// recording the file event. Used by wget/curl/tftp/ftpget.
func (sh *Shell) download(uri, dest string, out *bytes.Buffer, tool string) int {
	if sh.Fetch == nil {
		fmt.Fprintf(out, "%s: can't connect to remote host: Network is unreachable\n", tool)
		return 1
	}
	content, err := sh.Fetch(uri)
	if err != nil {
		fmt.Fprintf(out, "%s: bad address '%s'\n", tool, uri)
		return 1
	}
	ev, err := sh.FS.WriteFile(sh.CWD, dest, content, 0o644)
	if err != nil {
		fmt.Fprintf(out, "%s: %s: %s\n", tool, dest, shellErr(err))
		return 1
	}
	sh.Rec.File(ev)
	return 0
}

func basenameFromURI(uri string) string {
	s := uri
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '?'); i >= 0 {
		s = s[:i]
	}
	if strings.HasSuffix(s, "/") || !strings.Contains(s, "/") {
		return "index.html"
	}
	b := path.Base(s)
	if b == "." || b == "/" {
		return "index.html"
	}
	return b
}

func bWget(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	var uri, dest string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-O" || a == "-o":
			if i+1 < len(args) {
				dest = args[i+1]
				i++
			}
		case strings.HasPrefix(a, "-"):
		default:
			uri = a
		}
	}
	if uri == "" {
		fmt.Fprintf(out, "wget: missing URL\n")
		return 1
	}
	if !hasURIScheme(uri) {
		uri = "http://" + uri
	}
	if dest == "" {
		dest = basenameFromURI(uri)
	}
	rc := sh.download(uri, dest, out, "wget")
	if rc == 0 {
		fmt.Fprintf(out, "'%s' saved\n", dest)
	}
	return rc
}

func bCurl(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	var uri, dest string
	remoteName := false
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-o" || a == "--output":
			if i+1 < len(args) {
				dest = args[i+1]
				i++
			}
		case a == "-O" || a == "--remote-name":
			remoteName = true
		case strings.HasPrefix(a, "-"):
		default:
			uri = a
		}
	}
	if uri == "" {
		fmt.Fprintf(out, "curl: no URL specified!\n")
		return 2
	}
	if !hasURIScheme(uri) {
		uri = "http://" + uri
	}
	if remoteName && dest == "" {
		dest = basenameFromURI(uri)
	}
	if dest != "" {
		return sh.download(uri, dest, out, "curl")
	}
	// To stdout: fetched content flows through pipes/redirects, so a
	// redirected curl still produces a file event via the shell's
	// redirect path.
	if sh.Fetch == nil {
		fmt.Fprintf(out, "curl: (7) Failed to connect\n")
		return 7
	}
	content, err := sh.Fetch(uri)
	if err != nil {
		fmt.Fprintf(out, "curl: (6) Could not resolve host\n")
		return 6
	}
	out.Write(content)
	return 0
}

func bTftp(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	uris := ExtractURIs(Command{Name: "tftp", Args: args})
	if len(uris) == 0 {
		fmt.Fprintf(out, "tftp: usage\n")
		return 1
	}
	return sh.download(uris[0], basenameFromURI(uris[0]), out, "tftp")
}

func bFtpget(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	uris := ExtractURIs(Command{Name: "ftpget", Args: args})
	if len(uris) == 0 {
		fmt.Fprintf(out, "ftpget: usage\n")
		return 1
	}
	// Local name is the second positional argument when present.
	var rest []string
	for i := 0; i < len(args); i++ {
		if strings.HasPrefix(args[i], "-") {
			i++
			continue
		}
		rest = append(rest, args[i])
	}
	dest := basenameFromURI(uris[0])
	if len(rest) >= 2 {
		dest = rest[1]
	}
	return sh.download(uris[0], dest, out, "ftpget")
}

func bScp(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	uris := ExtractURIs(Command{Name: "scp", Args: args})
	if len(uris) == 0 {
		fmt.Fprintf(out, "usage: scp [-r] source target\n")
		return 1
	}
	return sh.download(uris[0], basenameFromURI(uris[0]), out, "scp")
}

func bChmod(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	var mode uint32 = 0o755
	rc := 0
	seenMode := false
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if !seenMode {
			if v, err := strconv.ParseUint(a, 8, 32); err == nil {
				mode = uint32(v)
			}
			seenMode = true
			continue
		}
		if err := sh.FS.Chmod(sh.CWD, a, mode); err != nil {
			fmt.Fprintf(out, "chmod: cannot access '%s': %s\n", a, shellErr(err))
			rc = 1
		}
	}
	return rc
}

func bChpasswd(_ *Shell, _ []string, _ []byte, _ *bytes.Buffer) int { return 0 }

func bPasswd(sh *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "passwd: password updated successfully\n")
	return 0
}

func bMkdir(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	parents := false
	rc := 0
	for _, a := range args {
		if a == "-p" {
			parents = true
		}
	}
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		var err error
		if parents {
			err = sh.FS.MkdirAll(sh.CWD, a, 0o755)
		} else {
			err = sh.FS.Mkdir(sh.CWD, a, 0o755)
		}
		if err != nil {
			fmt.Fprintf(out, "mkdir: cannot create directory '%s': %s\n", a, shellErr(err))
			rc = 1
		}
	}
	return rc
}

func bRm(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	recursive := false
	force := false
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			if strings.Contains(a, "r") || strings.Contains(a, "R") {
				recursive = true
			}
			if strings.Contains(a, "f") {
				force = true
			}
		}
	}
	rc := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		var err error
		if recursive {
			err = sh.FS.RemoveAll(sh.CWD, a)
		} else {
			err = sh.FS.Remove(sh.CWD, a)
		}
		if err != nil && !force {
			fmt.Fprintf(out, "rm: cannot remove '%s': %s\n", a, shellErr(err))
			rc = 1
		}
	}
	return rc
}

func bRmdir(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	rc := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if err := sh.FS.Remove(sh.CWD, a); err != nil {
			fmt.Fprintf(out, "rmdir: failed to remove '%s': %s\n", a, shellErr(err))
			rc = 1
		}
	}
	return rc
}

func bCp(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	var paths []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	if len(paths) < 2 {
		fmt.Fprintf(out, "cp: missing file operand\n")
		return 1
	}
	src, dst := paths[0], paths[1]
	content, err := sh.FS.ReadFile(sh.CWD, src)
	if err != nil {
		fmt.Fprintf(out, "cp: cannot stat '%s': %s\n", src, shellErr(err))
		return 1
	}
	if n, err := sh.FS.Stat(sh.CWD, dst); err == nil && n.IsDir() {
		dst = vfs.Normalize(sh.CWD, dst) + "/" + path.Base(src)
	}
	ev, err := sh.FS.WriteFile(sh.CWD, dst, content, 0o644)
	if err != nil {
		fmt.Fprintf(out, "cp: cannot create '%s': %s\n", dst, shellErr(err))
		return 1
	}
	sh.Rec.File(ev)
	return 0
}

func bMv(sh *Shell, args []string, stdin []byte, out *bytes.Buffer) int {
	var paths []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	if len(paths) < 2 {
		fmt.Fprintf(out, "mv: missing file operand\n")
		return 1
	}
	if rc := bCp(sh, paths, stdin, out); rc != 0 {
		return rc
	}
	if err := sh.FS.RemoveAll(sh.CWD, paths[0]); err != nil {
		fmt.Fprintf(out, "mv: cannot remove '%s': %s\n", paths[0], shellErr(err))
		return 1
	}
	return 0
}

func bTouch(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	rc := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if sh.FS.Exists(sh.CWD, a) {
			continue
		}
		ev, err := sh.FS.WriteFile(sh.CWD, a, nil, 0o644)
		if err != nil {
			fmt.Fprintf(out, "touch: cannot touch '%s': %s\n", a, shellErr(err))
			rc = 1
			continue
		}
		sh.Rec.File(ev)
	}
	return rc
}

func headTailInput(sh *Shell, args []string, stdin []byte, out *bytes.Buffer, tool string) ([]byte, int, bool) {
	n := 10
	var file string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-n" && i+1 < len(args):
			if v, err := strconv.Atoi(args[i+1]); err == nil {
				n = v
			}
			i++
		case strings.HasPrefix(a, "-n"):
			if v, err := strconv.Atoi(a[2:]); err == nil {
				n = v
			}
		case strings.HasPrefix(a, "-"):
			if v, err := strconv.Atoi(a[1:]); err == nil {
				n = v
			}
		default:
			file = a
		}
	}
	data := stdin
	if file != "" {
		var err error
		data, err = sh.FS.ReadFile(sh.CWD, file)
		if err != nil {
			fmt.Fprintf(out, "%s: cannot open '%s' for reading: %s\n", tool, file, shellErr(err))
			return nil, 0, false
		}
	}
	return data, n, true
}

func bHead(sh *Shell, args []string, stdin []byte, out *bytes.Buffer) int {
	data, n, ok := headTailInput(sh, args, stdin, out, "head")
	if !ok {
		return 1
	}
	lines := splitLines(data)
	if n < len(lines) {
		lines = lines[:n]
	}
	writeLines(out, lines)
	return 0
}

func bTail(sh *Shell, args []string, stdin []byte, out *bytes.Buffer) int {
	data, n, ok := headTailInput(sh, args, stdin, out, "tail")
	if !ok {
		return 1
	}
	lines := splitLines(data)
	if n < len(lines) {
		lines = lines[len(lines)-n:]
	}
	writeLines(out, lines)
	return 0
}

func splitLines(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	s := strings.TrimSuffix(string(data), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func writeLines(out *bytes.Buffer, lines []string) {
	for _, l := range lines {
		out.WriteString(l)
		out.WriteByte('\n')
	}
}

func bGrep(sh *Shell, args []string, stdin []byte, out *bytes.Buffer) int {
	invert := false
	var pattern, file string
	for _, a := range args {
		switch {
		case a == "-v":
			invert = true
		case strings.HasPrefix(a, "-"):
		case pattern == "":
			pattern = a
		case file == "":
			file = a
		}
	}
	if pattern == "" {
		fmt.Fprintf(out, "Usage: grep [OPTIONS] PATTERN [FILE]...\n")
		return 2
	}
	data := stdin
	if file != "" {
		var err error
		data, err = sh.FS.ReadFile(sh.CWD, file)
		if err != nil {
			fmt.Fprintf(out, "grep: %s: %s\n", file, shellErr(err))
			return 2
		}
	}
	matched := 0
	for _, l := range splitLines(data) {
		if strings.Contains(l, pattern) != invert {
			fmt.Fprintln(out, l)
			matched++
		}
	}
	if matched == 0 {
		return 1
	}
	return 0
}

func bWc(_ *Shell, args []string, stdin []byte, out *bytes.Buffer) int {
	lines := len(splitLines(stdin))
	words := len(strings.Fields(string(stdin)))
	chars := len(stdin)
	onlyLines := false
	for _, a := range args {
		if a == "-l" {
			onlyLines = true
		}
	}
	if onlyLines {
		fmt.Fprintf(out, "%d\n", lines)
	} else {
		fmt.Fprintf(out, "%7d %7d %7d\n", lines, words, chars)
	}
	return 0
}

func bWhich(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	rc := 1
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if _, ok := builtins[a]; ok && sh.FS.Exists("/", "/bin/"+a) {
			fmt.Fprintf(out, "/bin/%s\n", a)
			rc = 0
		} else if _, ok := builtins[a]; ok {
			fmt.Fprintf(out, "/usr/bin/%s\n", a)
			rc = 0
		}
	}
	return rc
}

func bHistory(sh *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	for i, h := range sh.history {
		fmt.Fprintf(out, "%5d  %s\n", i+1, h)
	}
	return 0
}

func bCrontab(_ *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	for _, a := range args {
		if a == "-l" {
			fmt.Fprintf(out, "no crontab for root\n")
			return 1
		}
	}
	return 0
}

func bDf(_ *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "Filesystem     1K-blocks    Used Available Use%% Mounted on\n")
	fmt.Fprintf(out, "/dev/sda1       20509264 3650908  15793492  19%% /\n")
	return 0
}

func bDu(_ *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "16\t.\n")
	return 0
}

func bMount(_ *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	if len(args) == 0 {
		fmt.Fprintf(out, "/dev/sda1 on / type ext4 (rw,relatime,errors=remount-ro)\n")
		fmt.Fprintf(out, "proc on /proc type proc (rw,nosuid,nodev,noexec,relatime)\n")
	}
	return 0
}

func bDd(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	var of string
	count, bs := 1, 512
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "of="):
			of = a[3:]
		case strings.HasPrefix(a, "count="):
			if v, err := strconv.Atoi(a[6:]); err == nil && v >= 0 {
				count = v
			}
		case strings.HasPrefix(a, "bs="):
			if v, err := strconv.Atoi(a[3:]); err == nil && v >= 0 {
				bs = v
			}
		}
	}
	// At most 1 MiB, checked before multiplying so no product overflows.
	n := 1 << 20
	if bs == 0 || count <= n/bs {
		n = count * bs
	}
	if of != "" && of != "/dev/null" {
		ev, err := sh.FS.WriteFile(sh.CWD, of, make([]byte, n), 0o644)
		if err != nil {
			fmt.Fprintf(out, "dd: failed to open '%s': %s\n", of, shellErr(err))
			return 1
		}
		sh.Rec.File(ev)
	}
	fmt.Fprintf(out, "%d+0 records in\n%d+0 records out\n%d bytes copied\n", count, count, n)
	return 0
}

func bExport(sh *Shell, args []string, _ []byte, _ *bytes.Buffer) int {
	for _, a := range args {
		if k, v, ok := strings.Cut(a, "="); ok {
			sh.Env[k] = v
		}
	}
	return 0
}

func bUnset(sh *Shell, args []string, _ []byte, _ *bytes.Buffer) int {
	for _, a := range args {
		delete(sh.Env, a)
	}
	return 0
}

func bEnv(sh *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	keys := make([]string, 0, len(sh.Env))
	for k := range sh.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%s=%s\n", k, sh.Env[k])
	}
	return 0
}

func bSh(sh *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	for i := 0; i < len(args); i++ {
		if args[i] == "-c" && i+1 < len(args) {
			// Nested interpretation; output goes to the session writer
			// through the normal Run path.
			return sh.Run(args[i+1])
		}
	}
	return 0
}

func bExit(sh *Shell, args []string, _ []byte, _ *bytes.Buffer) int {
	sh.exited = true
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil {
			sh.exitCode = v
		}
	}
	return sh.exitCode
}

func bYes(_ *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	s := "y"
	if len(args) > 0 {
		s = strings.Join(args, " ")
	}
	// Bounded: a honeypot must not let `yes` spin forever.
	for i := 0; i < 100; i++ {
		fmt.Fprintln(out, s)
	}
	return 0
}

func bAwk(_ *Shell, args []string, stdin []byte, out *bytes.Buffer) int {
	// Minimal awk: support '{print $N}' which covers the recon one-liners
	// bots run (e.g. `grep name /proc/cpuinfo | awk '{print $4}'`).
	prog := ""
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			prog = a
			break
		}
	}
	field := 0
	if i := strings.Index(prog, "$"); i >= 0 {
		if v, err := strconv.Atoi(strings.TrimRight(prog[i+1:], "}' \t")); err == nil {
			field = v
		}
	}
	for _, l := range splitLines(stdin) {
		if field == 0 {
			fmt.Fprintln(out, l)
			continue
		}
		fields := strings.Fields(l)
		if field <= len(fields) {
			fmt.Fprintln(out, fields[field-1])
		} else {
			fmt.Fprintln(out)
		}
	}
	return 0
}

func bIfconfig(_ *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "eth0: flags=4163<UP,BROADCAST,RUNNING,MULTICAST>  mtu 1500\n")
	fmt.Fprintf(out, "        inet 10.0.0.5  netmask 255.255.255.0  broadcast 10.0.0.255\n")
	return 0
}

func bNetstat(_ *Shell, _ []string, _ []byte, out *bytes.Buffer) int {
	fmt.Fprintf(out, "Active Internet connections (w/o servers)\n")
	fmt.Fprintf(out, "Proto Recv-Q Send-Q Local Address           Foreign Address         State\n")
	fmt.Fprintf(out, "tcp        0      0 10.0.0.5:22             10.0.0.2:51822          ESTABLISHED\n")
	return 0
}

func bBusybox(_ *Shell, args []string, _ []byte, out *bytes.Buffer) int {
	// Bare `busybox` or an unknown applet: print the applet-not-found
	// banner Mirai uses as a fingerprint probe.
	if len(args) == 0 {
		fmt.Fprintf(out, "BusyBox v1.30.1 (Debian 1:1.30.1-4) multi-call binary.\n")
		return 0
	}
	fmt.Fprintf(out, "%s: applet not found\n", args[0])
	return 127
}
