// Command notify renders per-AS abuse notifications from a dataset —
// the coordination step the paper's conclusion announces ("jointly
// notify networks participating in connections to the honeyfarm"). For
// each network above the activity threshold it prints the counts a
// responsible operator would need to act: client IPs, session volume,
// intrusion share, distinct malware hashes, and example addresses.
//
// Usage:
//
//	notify [-in dataset] [-seed 1] [-min 100] [-top 20]
//
// -in names a record log: a dataset cmd/honeyfarm wrote, or a
// collector's write-ahead log.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"honeyfarm"
)

func main() {
	in := flag.String("in", "dataset", "input dataset: a record log (WAL) directory")
	seed := flag.Int64("seed", 1, "registry seed used at generation time")
	minSessions := flag.Int("min", 100, "minimum sessions for an AS to be notified")
	top := flag.Int("top", 20, "number of reports to print")
	flag.Parse()

	reg := honeyfarm.NewRegistry(*seed)
	d, err := honeyfarm.LoadDatasetFile(*in, reg, 0, *seed)
	if err != nil {
		log.Fatalf("loading dataset: %v", err)
	}
	reports := d.AbuseReports(*minSessions)
	fmt.Fprintf(os.Stderr, "%d networks above the %d-session threshold\n", len(reports), *minSessions)
	for i, r := range reports {
		if i >= *top {
			break
		}
		fmt.Printf("--- notification %d ---\n", i+1)
		fmt.Printf("To:       abuse contact of AS%d (%s, %s network)\n", r.ASN, r.Country, r.Type)
		fmt.Printf("Subject:  hostile SSH/Telnet activity from your network\n")
		fmt.Printf("Observed: %d client IPs, %d sessions (%d intrusions), %d distinct malware hashes\n",
			r.ClientIPs, r.Sessions, r.IntrusionSessions, r.Hashes)
		fmt.Printf("Examples: %v\n\n", r.ExampleIPs)
	}
}
