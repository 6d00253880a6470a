package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"

	"freshcache/internal/oracle"
)

// loadTotals is a closed-loop oracle.Load as the fault benches'
// BENCH_*.json reports record it.
type loadTotals struct {
	TotalReads  int             `json:"total_reads"`
	TotalWrites int             `json:"total_writes"`
	TotalErrors int             `json:"total_errors"`
	Violations  int             `json:"violations"`
	Buckets     []oracle.Bucket `json:"buckets"`
}

func newLoadTotals(res oracle.Result) loadTotals {
	return loadTotals{
		TotalReads: res.Reads, TotalWrites: res.Writes, TotalErrors: res.Errors,
		Violations: res.Violations, Buckets: res.Buckets,
	}
}

// printTrajectory prints one row per 100ms bucket; bound names the
// staleness bound the violations column counts against.
func (lt loadTotals) printTrajectory(bound string) error {
	w := tw()
	fmt.Fprintf(w, "t (s)\treads\twrites\terrors\tstale>%s\n", bound)
	for _, b := range lt.Buckets {
		fmt.Fprintf(w, "%.1f\t%d\t%d\t%d\t%d\n", b.TSec, b.Reads, b.Writes, b.Errors, b.Violations)
	}
	return w.Flush()
}

// listen opens a loopback listener on an ephemeral port.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}

// writeReport writes report as indented JSON to path.
func writeReport(path string, report any) error {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
