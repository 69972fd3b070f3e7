// Command perfbench is the repository's end-to-end benchmark. It starts
// a loopback fleet inside its own process — one fleet.Router in front
// of three server.Server (szd) backends, each on its own store.Store,
// replication R=2 — drives one seeded workload through internal/client
// over real sockets, verifies every answer after the timed window, and
// prints one JSON result object as the last line of standard output.
//
//	bash perfbench/run.sh --workload cold_read --seed 3 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// workload twice, once plain and once with the per-layer probes on
// (Server-Timing through client.WithTiming, /metrics deltas of both
// tiers, and timed calls into core, blocked, store and client), and
// prints the per-layer split instead. NOTES.md lists every metric, the
// workloads and why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	dir      string // scratch root for stores; removed on exit
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer split")
	flag.BoolVar(&o.tiny, "tiny", false, "smoke mode: small fields and data sets (cache-size relations do not hold)")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for the fleet's temporary stores")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// writeResult prints the metrics as a readable table and then the JSON
// result as the final line.
func writeResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
