package daemon

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"honeyfarm/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the metrics golden file")

// client gives every request a connection of its own, so that no idle
// keep-alive goroutine outlives the call and reads as a leak.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// parked starts a request the handler will hold, and returns once the
// handler has it; the response (or transport error) arrives on the channel.
func parked(t *testing.T, url string, entered <-chan struct{}) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
		}
		res <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}
	return res
}

// TestSIGTERMDrainsCleanly is the whole lifecycle as a main writes it:
// a SIGTERM ends Wait, the drain and the leak check report nothing.
func TestSIGTERMDrainsCleanly(t *testing.T) {
	proc := Start("test")
	mux := Mux("test", metrics.NewRegistry(), http.NotFoundHandler())
	l, err := Listen("127.0.0.1:0", "", mux)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, "http://"+l.Addr().String()+"/metrics"); code != 200 ||
		!strings.Contains(body, `honeyfarm_build_info{component="test",`) {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	proc.Wait(l)
	if err := l.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := proc.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepts after the drain")
	}
}

// TestAddrFile: exactly the bound address and a newline, renamed into
// place (a file already there is replaced, never truncated and
// rewritten, so a poller cannot read half an address) with no
// temporary left beside it.
func TestAddrFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "addr")
	if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0", path, http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Drain(time.Second)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := l.Addr().String() + "\n"; string(got) != want {
		t.Fatalf("addr file holds %q, want %q", got, want)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("addr file was rewritten in place, not renamed into place")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the write, want the addr file alone", len(entries))
	}
}

// TestLeakedGoroutineReported: a goroutine started after Start and
// still running is an error naming the count, not a clean exit.
func TestLeakedGoroutineReported(t *testing.T) {
	// A baseline taken while an earlier test's server is still unwinding
	// would hide the leak: wait for the count to hold still first.
	for n, same := runtime.NumGoroutine(), 0; same < 5; {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	proc := Start("test")
	release := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		<-release
	}()
	err := proc.CheckLeaks()
	if err == nil || !strings.Contains(err.Error(), "1 goroutines leaked") {
		t.Fatalf("CheckLeaks = %v, want 1 goroutine reported", err)
	}
	close(release)
	<-exited
	if err := proc.CheckLeaks(); err != nil {
		t.Fatalf("after the goroutine exited: %v", err)
	}
}

// TestParkedRequestDoesNotHoldDrain: a handler waiting on its request
// context (the shard's long-poll) is let go as the drain begins.
func TestParkedRequestDoesNotHoldDrain(t *testing.T) {
	proc := Start("test")
	entered := make(chan struct{})
	l, err := Listen("127.0.0.1:0", "", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
	}))
	if err != nil {
		t.Fatal(err)
	}
	res := parked(t, "http://"+l.Addr().String()+"/", entered)
	begin := time.Now()
	if err := l.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("drain took %v with one parked request", took)
	}
	if err := <-res; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	if err := proc.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainTimeoutStillStops: a handler that outlives the drain bound
// is an error from Drain, returned — so the stop steps a main writes
// after it run — and the connection is cut rather than waited for.
func TestDrainTimeoutStillStops(t *testing.T) {
	proc := Start("test")
	entered, release := make(chan struct{}), make(chan struct{})
	l, err := Listen("127.0.0.1:0", "", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	}))
	if err != nil {
		t.Fatal(err)
	}
	res := parked(t, "http://"+l.Addr().String()+"/", entered)

	err = l.Drain(50 * time.Millisecond)
	close(release) // the caller's stop step: reached, because Drain returned
	if err == nil || !strings.Contains(err.Error(), "drain: context deadline exceeded") {
		t.Fatalf("Drain = %v, want the timeout", err)
	}
	if err := <-res; err == nil {
		t.Fatal("request survived a forced close")
	}
	if err := proc.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// TestBindAndServeErrorsAreReturned: neither ends the process inside
// the package. A taken address is Listen's error; a server that dies
// under Wait ends the wait, and Drain reports why.
func TestBindAndServeErrorsAreReturned(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if _, err := Listen(taken.Addr().String(), "", http.NotFoundHandler()); err == nil {
		t.Fatal("Listen on a taken address returned no error")
	}
	if _, err := Listen("127.0.0.1:0", filepath.Join(t.TempDir(), "no", "such", "dir", "addr"), http.NotFoundHandler()); err == nil {
		t.Fatal("Listen with an unwritable -addr-file returned no error")
	}

	proc := Start("test")
	l, err := Listen("127.0.0.1:0", "", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	l.ln.Close() // the next Accept fails, and Serve with it
	proc.Wait(l)
	if err := l.Drain(time.Second); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Drain after a serve error = %v, want the accept failure", err)
	}
	if err := proc.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// The values the golden masks: every sample, and the toolchain version.
var (
	sampleValue = regexp.MustCompile(`(?m)^([^#\n][^ \n]*) .*$`)
	goVersion   = regexp.MustCompile(`go_version="[^"]*"`)
)

// TestRuntimeMetricsGolden pins what Mux adds to the registry it is
// handed — names, help, types, label keys — with values masked.
func TestRuntimeMetricsGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	Mux("serve", reg, http.NotFoundHandler())
	got := goVersion.ReplaceAll(sampleValue.ReplaceAll(reg.Render(), []byte("$1 V")), []byte(`go_version="V"`))
	golden := filepath.Join("testdata", "runtime_metrics_schema.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/daemon -update): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("exposition changed\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Masked, but not meaningless: a running test has goroutines and,
	// once a GC cycle has measured it, a live heap.
	runtime.GC()
	for _, name := range []string{"honeyfarm_runtime_goroutines", "honeyfarm_runtime_heap_live_bytes"} {
		if regexp.MustCompile(`(?m)^` + name + ` 0$`).Match(reg.Render()) {
			t.Errorf("%s reads 0", name)
		}
	}
}
