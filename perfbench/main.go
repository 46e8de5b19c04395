// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload against the serving plane (internal/fl), the
// fleet simulator (internal/fleet) or real BoFL clients over loopback HTTP,
// checks the committed models against the naive references, and prints the
// metrics by name with units. The last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload serve-wide --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
// the workload untraced and then traced in the same process and prints the
// per-layer metrics, measured by timing calls into each layer's public
// interfaces from the outside and by reading the spans and counters the
// program already emits into an obs.NewBoFL sink. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"bofl/internal/parallel"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one run's inputs. The seed is the only source of workload
// randomness; small selects the reduced shapes the benchmark's tests use.
// A pass measures for seconds, or exactly rounds rounds when that is set.
type options struct {
	seed    int64
	seconds float64
	rounds  int
	small   bool
}

// workload is one named benchmark input: run executes it once, untraced or
// traced, and returns what it measured.
type workload struct {
	name string
	run  func(o options, traced bool) (*result, error)
}

// workloads are described, with the reason for each, in README.md.
var workloads = []workload{
	{"serve-wide", runServeWide},
	{"serve-tree-chaos", runServeTreeChaos},
	{"fleet-1m", runFleet},
	{"bofl-http", runBoflHTTP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "round wall time a run measures; a traced run splits it over its two passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	// At most nproc participant calls, connections or shard workers are in
	// flight; GOMAXPROCS is left at its default, which is nproc.
	parallel.SetWorkers(runtime.NumCPU())

	if err := execute(w, options{seed: *seed, seconds: *seconds}, *trace == 1, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// execute runs one workload and prints the host line, the per-pass lines,
// the metrics table and, last, the summary JSON.
func execute(w workload, o options, traced bool, stdout io.Writer) error {
	hostLine, err := json.Marshal(hostInfo(o.seed, w.name, traced))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	var out summary
	if traced {
		out, err = tracedRun(w, o, stdout)
	} else {
		out, err = untracedRun(w, o, stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w workload, o options, stdout io.Writer) (summary, error) {
	res, err := w.run(o, false)
	if err != nil {
		return summary{}, err
	}
	printResult(stdout, "untraced", res)
	m := endToEnd(res)
	m["peak_rss_mb"] = metric{res.peakRSSMB, "MB"}
	printMetrics(stdout, m)
	// A round that fails aborts the run with an error, so a printed summary
	// never counts one.
	return summary{Correct: res.correct(), Attempted: int64(len(res.rounds)), Metrics: m}, nil
}

// tracedRun runs the workload untraced, then traced, and reports the
// per-layer breakdown of the traced pass. Both passes must pass their output
// checks with identical digests. The untraced pass measures for half the
// given time, so a traced run takes about as long as an untraced one; the
// traced pass runs the same rounds, so both fold the same updates.
func tracedRun(w workload, o options, stdout io.Writer) (summary, error) {
	o.seconds /= 2
	base, err := w.run(o, false)
	if err != nil {
		return summary{}, err
	}
	printResult(stdout, "untraced", base)
	o.rounds = len(base.rounds)
	tr, err := w.run(o, true)
	if err != nil {
		return summary{}, err
	}
	printResult(stdout, "traced", tr)
	correct := base.correct() && tr.correct()
	if base.modelDigest != tr.modelDigest || base.ledgerDigest != tr.ledgerDigest {
		fmt.Fprintf(stdout, "check FAILED: traced digests differ from untraced\n")
		correct = false
	}
	if a, b := base.energyPerUpdate(), tr.energyPerUpdate(); a != b {
		fmt.Fprintf(stdout, "check FAILED: traced energy_j_per_update %v != untraced %v\n", b, a)
		correct = false
	}
	m := perLayer(base, tr)
	printMetrics(stdout, m)
	return summary{Correct: correct, Attempted: int64(len(base.rounds) + len(tr.rounds)), Metrics: m}, nil
}

func printResult(w io.Writer, pass string, r *result) {
	fmt.Fprintf(w, "%s: rounds=%d tail=p%d (n=%d) setups=%d checked_rounds=%d model_digest=%s ledger_digest=%s\n",
		pass, len(r.rounds), tailPercentile(len(r.rounds)), len(r.rounds), len(r.setup), r.checked, r.modelDigest, r.ledgerDigest)
	for _, msg := range r.mismatches {
		fmt.Fprintf(w, "check FAILED: %s\n", msg)
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
