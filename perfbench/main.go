// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, measures it for a fixed time, checks every
// output it produced, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload tables-small --seed 1 --seconds 10 --trace 0
//
// It must be started from the repository root. With --trace 0 the
// result carries the end-to-end metrics; with --trace 1 a separate
// traced run records spans around the same public calls and reports
// the per-layer metrics instead. NOTES.md explains every workload and
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runEnv) error{
	"tables-large":  runTablesLarge,
	"tables-small":  runTablesSmall,
	"service-mix":   runServiceMix,
	"cluster-3node": runCluster3,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		smoke    = flag.Bool("smoke", false, "minimal sizes, for the benchmark's own tests")
		part     = flag.Bool("partitioned", false, "also run the partitioned driver, whose outputs fail the checks on many inputs (NOTES.md, \"Known defect\")")
		out      = flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for trace files, relative to the repository root")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(config{
		workload:    *workload,
		seed:        *seed,
		seconds:     *seconds,
		traced:      *trace == 1,
		smoke:       *smoke,
		partitioned: *part,
		outDir:      *out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	smoke    bool
	// partitioned adds the partitioned driver to every workload.
	partitioned bool
	outDir      string
}

// run executes one workload and returns its result line. An error
// means the benchmark could not run at all (not a failed check).
func run(cfg config) (result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	prov, err := collectProvenance(cfg)
	if err != nil {
		return result{}, err
	}
	env := newRunEnv(cfg)
	defer env.cleanup()
	if err := fn(env); err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res := env.result()
	if err := env.writeReport(prov, res); err != nil {
		return result{}, err
	}
	provLine, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", provLine)
	return res, nil
}
