// Package replay bridges the two execution paths of the reproduction:
// it takes session records from the record-level generator and replays
// them as real SSH/Telnet sessions against a wire-level honeyfarm, so
// the statistical dataset and the protocol implementation can be checked
// against each other. A replayed NO_CRED record produces a handshake-
// only connection; a FAIL_LOG record replays its failed credential list;
// CMD/CMD+URI records log in and type their recorded command lines into
// the honeypot's emulated shell.
//
// Replaying the full dataset would be wire-speed-bound; the intended use
// is sampled validation (see ReplaySample) and the wire-vs-record
// throughput ablation bench.
package replay

import (
	"fmt"
	"io"
	"net"
	"sync"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/farm"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/netsim"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
)

// Stats summarizes a replay run.
type Stats struct {
	Replayed int
	Errors   int
	// ByCategory counts the *source* records replayed per category.
	ByCategory [analysis.NumCategories]int
}

// Replayer replays session records against a farm.
type Replayer struct {
	Farm *farm.Farm
	// Concurrency bounds parallel sessions (default 16).
	Concurrency int
}

// ReplaySample replays every n-th record of recs (stride ≥ 1) and
// returns run statistics. Records targeting honeypots outside the farm
// are skipped.
func (r *Replayer) ReplaySample(recs []*honeypot.SessionRecord, stride int) (Stats, error) {
	if r.Farm == nil {
		return Stats{}, fmt.Errorf("replay: Farm is required")
	}
	if stride < 1 {
		stride = 1
	}
	conc := r.Concurrency
	if conc <= 0 {
		conc = 16
	}
	var (
		mu    sync.Mutex
		stats Stats
		wg    sync.WaitGroup
		sem   = make(chan struct{}, conc)
	)
	numPots := len(r.Farm.Deployments())
	for i := 0; i < len(recs); i += stride {
		rec := recs[i]
		if rec.HoneypotID < 0 || rec.HoneypotID >= numPots {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			err := r.replayOne(rec)
			mu.Lock()
			stats.Replayed++
			stats.ByCategory[analysis.Classify(rec)]++
			if err != nil {
				stats.Errors++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return stats, nil
}

// replayOne drives one session. The honeypot ends up recording a fresh
// SessionRecord into the farm's collector.
func (r *Replayer) replayOne(rec *honeypot.SessionRecord) error {
	if rec.Protocol == honeypot.Telnet {
		return r.replayTelnet(rec)
	}
	return r.replaySSH(rec)
}

func (r *Replayer) dial(rec *honeypot.SessionRecord, port int) (net.Conn, error) {
	addr := netsim.Addr{IP: r.Farm.SSHAddr(rec.HoneypotID).IP, Port: port}
	return r.Farm.Fabric().Dial(rec.ClientIP, addr)
}

func (r *Replayer) replaySSH(rec *honeypot.SessionRecord) error {
	nc, err := r.dial(rec, 22)
	if err != nil {
		return err
	}
	defer nc.Close()

	version := rec.ClientVersion
	if version == "" {
		version = "SSH-2.0-replay"
	}
	switch analysis.Classify(rec) {
	case analysis.NoCred:
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true, Version: version})
		if err != nil {
			return err
		}
		return cc.Close()

	case analysis.FailLog:
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true, Version: version})
		if err != nil {
			return err
		}
		defer cc.Close()
		for _, l := range rec.Logins {
			if _, err := cc.TryPasswords(l.User, []string{l.Password}); err != nil {
				// The server's three-strike disconnect ends the replay
				// exactly as it ended the original session.
				return nil
			}
		}
		return nil

	default:
		user, pass := successCredentials(rec)
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: user, Password: pass, Version: version})
		if err != nil {
			return err
		}
		defer cc.Close()
		sess, err := cc.OpenSession()
		if err != nil {
			return err
		}
		if len(rec.Commands) == 0 {
			// NO_CMD: open a shell, say nothing, leave (the original
			// mostly timed out; the replay leaves by closing).
			if err := sshwire.RequestShell(sess); err != nil {
				return err
			}
			return sess.Close()
		}
		if err := sshwire.RequestShell(sess); err != nil {
			return err
		}
		// The writer races the drain below on purpose (the honeypot echoes
		// while we type); closing writeDone joins it before returning.
		writeDone := make(chan struct{})
		go func() {
			defer close(writeDone)
			for _, c := range append(rec.Commands, honeypot.CommandRecord{Input: "exit"}) {
				if _, err := sess.Write([]byte(c.Input + "\n")); err != nil {
					// Session torn down under us; the drain sees the close.
					return
				}
			}
		}()
		_, err = io.Copy(io.Discard, sess)
		<-writeDone
		if err != nil && !sshwire.IsGracefulDisconnect(err) {
			return err
		}
		return nil
	}
}

func (r *Replayer) replayTelnet(rec *honeypot.SessionRecord) error {
	nc, err := r.dial(rec, 23)
	if err != nil {
		return err
	}
	defer nc.Close()
	c := telnet.NewConn(nc, false)

	switch analysis.Classify(rec) {
	case analysis.NoCred:
		// Read the banner and leave without credentials; an immediate
		// close still reproduces a NO_CRED probe.
		buf := make([]byte, 64)
		if _, err := nc.Read(buf); err != nil && err != io.EOF {
			return err
		}
		return nil
	case analysis.FailLog:
		for _, l := range rec.Logins {
			ok, err := telnet.ClientLogin(c, l.User, l.Password)
			if err != nil || ok {
				return nil
			}
		}
		return nil
	default:
		user, pass := successCredentials(rec)
		ok, err := telnet.ClientLogin(c, user, pass)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("replay: login rejected for %s", user)
		}
		for _, cmd := range rec.Commands {
			if err := c.WriteString(cmd.Input + "\r\n"); err != nil {
				return nil
			}
		}
		if err := c.WriteString("exit\r\n"); err != nil {
			return err
		}
		// Nothing is read back, so nothing else would put the lines on
		// the wire before the caller hangs up.
		return c.Flush()
	}
}

// successCredentials extracts the record's successful login pair, or a
// policy-passing default.
func successCredentials(rec *honeypot.SessionRecord) (string, string) {
	for _, l := range rec.Logins {
		if l.Success {
			return l.User, l.Password
		}
	}
	return "root", "replay-pass"
}
