// Command dmcbench is the repository's benchmark. It drives a real
// cmd/dmcd over loopback with one of three seeded serving workloads and
// reports what a client of the daemon sees; with -trace 1 it replays the
// same requests up the layer ladder — lp → core → WarmPool → serve in
// process → journal → sync replication → HTTP — and reports each layer's
// cost.
//
// Usage (dmcbench/run.sh builds dmcd and this command from source, then
// runs it with these flags):
//
//	dmcbench -dmcd bin/dmcd -workload fleet-cg -seed 1 -seconds 15 -trace 0
//
// Workloads:
//
//	fleet-cg         128 sessions of 40 paths × 4 transmissions (column
//	                 generation), drifting over 8 rounds; odd sessions use
//	                 the min-cost objective
//	sweep-tiny       4096 sessions of 3 paths × 2 transmissions over 4
//	                 drift rounds: the serving tax on 16-column LPs
//	observe-durable  256 estimator sessions fed /v1/observe reports, on a
//	                 durable primary acknowledging only after a loopback
//	                 follower has each record (-repl-ack sync)
//
// The load generator is a closed loop over one keep-alive connection per
// CPU, one goroutine each, sending pre-rendered requests. The last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics; the lines before it are a human-readable report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dmcbench:", err)
		os.Exit(1)
	}
}

// options are the parsed flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dmcd     string
	// outDir receives the span dump of a traced run.
	outDir  string
	workers int
	// smoke shrinks every workload for a quick self-check.
	smoke bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dmcbench", flag.ContinueOnError)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload: fleet-cg, sweep-tiny or observe-durable")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics against dmcd; 1: per-layer ladder with spans")
	fs.StringVar(&o.dmcd, "dmcd", "", "path to a built cmd/dmcd binary")
	fs.StringVar(&o.outDir, "out", ".", "directory for the traced run's span dump")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink the workload for a quick self-check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.dmcd == "" {
		return errors.New("-dmcd is required")
	}
	if _, err := os.Stat(o.dmcd); err != nil {
		return fmt.Errorf("dmcd binary: %w", err)
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	o.trace = trace == 1
	o.workers = workers()

	t0 := time.Now()
	w, err := generate(o.workload, o.seed, o.smoke)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dmcbench: workload %s seed %d: %d sessions of %d paths × %d transmissions, generated in %v; %d connections\n",
		w.name, w.seed, len(w.sessions), w.shape.paths, w.shape.trans, time.Since(t0).Round(time.Millisecond), o.workers)

	var res result
	if o.trace {
		res, err = runLadder(o, w, stdout)
	} else {
		res, err = runE2E(o, w, stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// traceFile names a traced run's span dump.
func traceFile(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("dmcbench-trace-%s-%d.jsonl", o.workload, o.seed))
}
