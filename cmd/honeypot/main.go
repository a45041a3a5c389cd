// Command honeypot runs a single medium-interaction SSH/Telnet honeypot
// on real TCP ports — the same honeypot code a shard's wire front runs,
// served by the same honeypot.Server — and streams one
// SessionRecord JSON object per line to a log (cowrielog.Export converts
// records to Cowrie's format). On SIGINT or SIGTERM it stops accepting,
// drains the sessions in flight for up to honeypot.DefaultDrainTimeout,
// and closes the log.
//
// Usage:
//
//	honeypot [-ssh :2222] [-telnet :2323] [-log sessions.jsonl] [-fetch]
//
// Connect with any SSH client (user root, any password except "root"):
//
//	ssh -p 2222 root@localhost
package main

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/malware"
)

func main() {
	sshAddr := flag.String("ssh", ":2222", "SSH listen address")
	telnetAddr := flag.String("telnet", ":2323", "Telnet listen address")
	logPath := flag.String("log", "", "JSONL session log (default stdout)")
	fetch := flag.Bool("fetch", false, "simulate successful downloads for wget/curl/tftp (default: egress blocked)")
	transcript := flag.Bool("transcript", false, "record shell output transcripts into the session log")
	flag.Parse()

	out := os.Stdout
	if *logPath != "" {
		f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening log: %v", err)
		}
		out = f
	}
	var mu sync.Mutex
	enc := json.NewEncoder(out)

	rsaKey, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		log.Fatalf("generating rsa host key: %v", err)
	}
	cfg := honeypot.Config{
		RSAHostKey:       rsaKey,
		RecordTranscript: *transcript,
		Sink: func(r *honeypot.SessionRecord) {
			mu.Lock()
			defer mu.Unlock()
			if err := enc.Encode(r); err != nil {
				log.Printf("encoding record: %v", err)
			}
		},
	}
	if *fetch {
		cfg.Fetch = func(uri string) ([]byte, error) {
			return malware.PayloadFor(uri), nil
		}
	}
	pot, err := honeypot.New(cfg)
	if err != nil {
		log.Fatalf("creating honeypot: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var srv honeypot.Server
	for _, l := range []struct {
		proto, addr string
		handle      func(net.Conn)
	}{
		{"ssh", *sshAddr, pot.ServeSSH},
		{"telnet", *telnetAddr, pot.ServeTelnet},
	} {
		ln, err := net.Listen("tcp", l.addr)
		if err != nil {
			log.Fatalf("listening on %s: %v", l.addr, err)
		}
		fmt.Fprintf(os.Stderr, "honeypot: %s on %s\n", l.proto, ln.Addr())
		srv.Serve(ln, l.handle)
	}

	fmt.Fprintf(os.Stderr, "honeypot: %v, draining\n", <-sig)
	if err := srv.Close(); err != nil {
		log.Printf("closing listeners: %v", err)
	}
	srv.Drain(honeypot.DefaultDrainTimeout)
	if *logPath != "" {
		if err := out.Close(); err != nil {
			log.Fatalf("closing log: %v", err)
		}
	}
}
