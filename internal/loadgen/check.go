package loadgen

// The reconciliation side of the harness: after a run, the generator's
// own accepted count is cross-checked against the fleet's /metrics —
// the sum of honeyfarm_wire_sessions_accepted_total across every
// target node must equal the sessions the generator completed. This is
// the end-to-end count proof: a session the client finished but the
// fleet never persisted (or double-counted) shows up as a mismatch.

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ScrapeCounter fetches a /metrics URL and returns the summed value of
// the named metric family (all label children included).
func ScrapeCounter(client *http.Client, url, name string) (float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("loadgen: %s: status %d", url, resp.StatusCode)
	}
	total := 0.0
	found := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Exact family match: next byte is a space (no labels) or '{'.
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		sp := strings.LastIndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(rest[sp+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("loadgen: %s: bad sample %q: %v", url, line, err)
		}
		total += v
		found = true
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("loadgen: %s: metric %s not found", url, name)
	}
	return total, nil
}

// acceptedMetric is the counter a reconciliation sums: what each wire
// front accepted and persisted.
const acceptedMetric = "honeyfarm_wire_sessions_accepted_total"

// CheckResult is the reconciliation outcome.
type CheckResult struct {
	Metric string  `json:"metric"`
	Want   float64 `json:"want"`
	Got    float64 `json:"got"`
	Match  bool    `json:"match"`
}

// Reconcile polls acceptedMetric across all URLs until the summed value
// reaches want or the deadline passes (records can trail the wire by a
// group-commit interval). sleep is the injected poll pacer.
func Reconcile(urls []string, want float64, attempts int, sleep func(time.Duration)) (CheckResult, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	res := CheckResult{Metric: acceptedMetric, Want: want}
	for i := 0; i < attempts; i++ {
		if i > 0 && sleep != nil {
			sleep(100 * time.Millisecond)
		}
		total := 0.0
		ok := true
		for _, u := range urls {
			v, err := ScrapeCounter(client, u, acceptedMetric)
			if err != nil {
				if i == attempts-1 {
					return res, err
				}
				ok = false
				break
			}
			total += v
		}
		if !ok {
			continue
		}
		res.Got = total
		if total == want {
			res.Match = true
			return res, nil
		}
		// Overshoot can never reconcile; stop polling early.
		if total > want {
			return res, nil
		}
	}
	return res, nil
}
