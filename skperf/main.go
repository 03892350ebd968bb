// Command skperf is the SecureKeeper benchmark. It boots an in-process
// 3-voter SecureKeeper ensemble with the calibrated SGX costs
// applied, drives one named workload from closed-loop clients, checks
// the outputs and prints every metric by name and unit. The last line of
// standard output is the JSON result.
//
//	skperf --workload sk-write --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds a traced
// window and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// Seeds: DefaultSeed is the one to tune against; HeldOutSeed is kept
// for confirming a claimed gain on inputs not used while making it.
const (
	DefaultSeed = 1
	HeldOutSeed = 2
)

func main() {
	var (
		opt     options
		seconds float64
		trace   int
	)
	flag.StringVar(&opt.workload, "workload", "sk-write", "sk-write, sk-read-mix or sk-lock-churn")
	flag.Int64Var(&opt.seed, "seed", DefaultSeed, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced window and reports per-layer metrics")
	flag.StringVar(&opt.dataRoot, "data", ".bench_build/data", "scratch directory for the storage replay")
	flag.StringVar(&opt.spansOut, "spans", "", "with --trace 1, write the traced window's spans to this file as JSON lines")
	flag.Parse()
	if trace != 0 && trace != 1 || seconds <= 0 {
		fmt.Fprintln(os.Stderr, "skperf: need --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	opt.warmup = time.Second
	opt.trace = trace == 1
	opt.window = time.Duration(seconds * float64(time.Second))
	if err := os.MkdirAll(opt.dataRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "skperf:", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skperf:", err)
		os.Exit(1)
	}
	if err := writeJSON(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "skperf:", err)
		os.Exit(1)
	}
}
