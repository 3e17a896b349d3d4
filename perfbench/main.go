// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed window and prints its end-to-end metrics (or, with
// --trace 1, its per-layer metrics), the output checks it made and, as
// the last line, one JSON result. See README.md.
//
//	go run . --workload serve --seed 1 --seconds 20 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what a workload is given.
type env struct {
	seed    int64
	window  time.Duration // length of one measured phase
	traced  bool
	workers int    // every worker and connection count: min(2, GOMAXPROCS)
	tmp     string // scratch directory inside the checkout, removed after the run
	heap    *heapSampler
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"serve":      runServe,
	"solve-wide": runSolveWide,
	"solve-deep": runSolveDeep,
	"offline":    runOffline,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of one measured phase in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced phase after the untraced one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	return 0
}

func runWorkload(w func(*env) (*report, error), seed int64, window time.Duration, traced bool, stdout io.Writer) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return err
	}
	rep, err := w(newEnv(seed, window, traced, tmp))
	if err != nil {
		return err
	}
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	return rep.write(stdout, traced)
}

// newEnv sets GOMAXPROCS to the CPUs this process may use and starts the
// heap sampler.
func newEnv(seed int64, window time.Duration, traced bool, tmp string) *env {
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	return &env{seed: seed, window: window, traced: traced, workers: min(2, procs), tmp: tmp, heap: startHeapSampler()}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
