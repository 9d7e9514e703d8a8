// Command perfbench is the repository's benchmark. It runs one named
// workload against the optimizer stack, checks that the outputs are
// correct, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// they are the per-layer metrics (spans around the benchmark's calls
// into each layer, shadow calls, exact counters and runtime figures;
// run.py adds CPU attribution by layer from the profiles the traced
// rounds write). A run repeats rounds of the same work until
// --seconds of program time is measured; a traced run makes at least
// two and traces every second one, so it measures its own overhead
// against the untraced rounds. Run it through run.py,
// which builds it first:
//
//	python3 perfbench/run.py --workload fleet-prod --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are one run's inputs. Everything a workload generates
// derives from seed.
type options struct {
	seed    int64
	seconds int
	trace   bool
	tiny    bool
	// state is a scratch directory inside the checkout.
	state string
	// profiles, under state, receives one CPU profile per traced round.
	profiles string
}

// A run repeats its set-up at least setupRounds times and then until
// setupBudget has been spent on it or setupMaxRounds is reached;
// setup_s is the median.
const (
	setupRounds    = 9
	setupMaxRounds = 50
	setupBudget    = time.Second
)

var workloads = map[string]func(options) (*result, error){
	"fleet-prod":    fleetProd,
	"hot-warehouse": hotWarehouse,
	"fleet-wide":    fleetWide,
}

// endToEnd lists the metrics the last line carries with -trace 0: the
// ones every workload reports. Workload-specific end-to-end metrics
// (resume_s, scrape_ms_*, billing_error_pct, ...) are printed in the
// report line above it.
var endToEnd = []string{"setup_s", "sim_hours_per_s", "epoch_ms_p50", "epoch_ms_tail", "peak_heap_mb"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-prod, hot-warehouse or fleet-wide")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measuring time: rounds repeat until their program time reaches it")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	tiny := fs.Bool("tiny", false, "run at a tiny size (self-test)")
	state := fs.String("state", ".bench_build/perfbench-state", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload in %v, -trace 0|1, -seconds >= 1\n", names())
		return 2
	}
	if err := os.MkdirAll(*state, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, state: *state,
		profiles: filepath.Join(*state, "profiles")}
	res, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report(stdout, *name, o, res)
	if !res.correct() {
		return 1
	}
	return 0
}

// report prints the human-readable table, one JSON report line with
// every metric the workload measured, and the result line.
func report(w io.Writer, name string, o options, res *result) {
	fmt.Fprintf(w, "workload %s seed %d trace %v tiny %v\n", name, o.seed, o.trace, o.tiny)
	for _, c := range res.checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %-20s %s  %s\n", c.Name, status, c.Msg)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note", n)
	}
	printTable(w, "e2e", res.e2e)
	if o.trace {
		for _, l := range layerNames {
			if _, ok := res.layer[l.name]; !ok {
				res.setLayer(l.name, 0, l.unit)
			}
		}
		printTable(w, "layer", res.layer)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", res.attempted, res.failed)
	full := map[string]any{"workload": name, "seed": o.seed, "trace": o.trace,
		"end_to_end": res.e2e, "per_layer": res.layer}
	b, _ := json.Marshal(full)
	fmt.Fprintf(w, "report %s\n", b)

	metrics := map[string]value{}
	if o.trace {
		for _, l := range layerNames {
			metrics[l.name] = res.layer[l.name]
		}
	} else {
		for _, m := range endToEnd {
			if v, ok := res.e2e[m]; ok {
				metrics[m] = v
			}
		}
	}
	b, _ = json.Marshal(map[string]any{"correct": res.correct(), "attempted": res.attempted,
		"failed": res.failed, "metrics": metrics})
	fmt.Fprintf(w, "%s\n", b)
}

func printTable(w io.Writer, kind string, m map[string]value) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-6s %-36s %14.6g %s\n", kind, k, m[k].Value, m[k].Unit)
	}
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
