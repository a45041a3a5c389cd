// Cowriepipe: the interop path for operators of real Cowrie honeypots —
// feed a cowrie.json event log through this repository's analysis
// pipeline. The example synthesizes a small log in Cowrie's format
// (standing in for a real deployment's file), imports it (a sensor
// named "<name>-<digits>" is that honeypot; others are numbered as they
// first appear), and runs the paper's classification and campaign
// analyses on it.
//
//	go run ./examples/cowriepipe
//
// With a real log:
//
//	go run ./cmd/analyze -cowrie -in /var/log/cowrie/cowrie.json
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"honeyfarm"
	"honeyfarm/internal/analysis"
	"honeyfarm/internal/report"
)

func main() {
	// Stage 1: a "real" Cowrie log. Here we synthesize one by exporting a
	// small generated dataset into Cowrie's event format — byte-for-byte
	// the shape a Cowrie deployment writes to cowrie.json.
	src, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 99, TotalSessions: 8000, Days: 30, NumPots: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	var cowrieJSON bytes.Buffer
	if err := src.ExportCowrie(&cowrieJSON); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cowrie.json: %d bytes of Cowrie-format events\n", cowrieJSON.Len())

	// Stage 2: import the log as if it came from a real farm and run the
	// paper's pipeline over it.
	d, err := honeyfarm.LoadCowrie(&cowrieJSON, nil, 10, 99)
	if err != nil {
		log.Fatal(err)
	}
	d.Summary(os.Stdout)
	fmt.Println("(note: at this tiny demo scale the campaign session floors dominate the")
	fmt.Println(" category mix; calibrated shares need the default 400k-session scale)")
	fmt.Println()
	report.Table1(os.Stdout, d.CategoryShares())
	fmt.Println()
	report.TopCounted(os.Stdout, "Top commands (Table 3):", "command", d.TopCommands(8))
	fmt.Println()
	report.HashTable(os.Stdout, "Top hashes by sessions (Table 4):", d.HashTable(analysis.BySessions, 5), 5)
}
