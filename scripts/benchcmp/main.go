// Command benchcmp diffs `go test -bench` output against a JSON baseline
// snapshot (BENCH_baseline.json style) and flags ns/op regressions, or,
// with -ab, runs paired A/B comparisons of two root test binaries.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem . | go run ./scripts/benchcmp \
//	    -baseline BENCH_baseline.json [-threshold 25] [-critical regexp] \
//	    [-write BENCH_new.json]
//
//	go run ./scripts/benchcmp -ab [-pairs 10] [-benchtime 200ms] \
//	    [-threshold 25] [-critical regexp] ref.test cur.test
//
// The -ab mode (behind `make bench-ab`) runs the -critical set on both
// binaries in alternating pairs, with -benchmem on 2 CPUs, and fails
// when a benchmark's median per-pair ns/op ratio exceeds
// 1 + threshold/100 or its allocs/op exceed REF's by more than
// max(2, 10%). It also prints both sides' median B/op, which gates
// nothing, and, on a line below each benchmark, the median of every
// metric the benchmark reports itself (b.ReportMetric), REF's beside
// the current tree's, which gate nothing either. Both sides run on the same machine in the same minutes,
// so the verdict does not depend on the day's speed of the machine, as
// a comparison against a recorded baseline does.
//
// Bench output is read from stdin (or -in). Exit status is 1 only when
// a benchmark matching -critical regresses by more than -threshold
// percent in ns/op; regressions elsewhere — end-to-end sweeps and
// simulations, which are too noisy on shared runners to gate merges —
// are reported as warnings. New or vanished benchmarks are reported but
// never fail the run. The default -critical set covers the solve-core
// benchmarks (LP solve, dispatch, fleet fan-outs, scalability), whose
// per-op times are tight enough to compare meaningfully.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// entry mirrors one benchmark record of the baseline JSON.
type entry struct {
	Iterations  int64   `json:"iterations,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"B_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds the benchmark's own b.ReportMetric values by unit,
	// such as the solve benchmarks' cg-iters/op.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// baseline mirrors BENCH_baseline.json.
type baseline struct {
	Note       string           `json:"note,omitempty"`
	Date       string           `json:"date,omitempty"`
	Go         string           `json:"go,omitempty"`
	Benchtime  string           `json:"benchtime,omitempty"`
	Goos       string           `json:"goos,omitempty"`
	Goarch     string           `json:"goarch,omitempty"`
	Pkg        string           `json:"pkg,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkFoo/case=1-8  123  456.7 ns/op  89 B/op  10 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.e+]+) ns/op(.*)$`)

var metricRe = regexp.MustCompile(`([\d.e+]+) (\S+)`)

func parseBench(r io.Reader) (map[string]entry, []string, error) {
	out := map[string]entry{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e := entry{Iterations: iters, NsPerOp: ns}
		for _, mm := range metricRe.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			switch mm[2] {
			case "B/op":
				e.BPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				if e.Extra == nil {
					e.Extra = map[string]float64{}
				}
				e.Extra[mm[2]] = v
			}
		}
		if _, seen := out[m[1]]; !seen {
			order = append(order, m[1])
		}
		out[m[1]] = e
	}
	return out, order, sc.Err()
}

// defaultCritical matches the solve-core benchmarks: regressions here
// fail the run, regressions in sweeps/simulations only warn. SolveMany
// (a one-shot fleet fan-out) also covers SolveManyWarm (the same
// fan-out re-solving one WarmPool session per network);
// MinCostCG is the §VI-A column-generation solve core. ServeSaturation
// gates the cmd/dmcd serving tax over the same warm fleet re-solves.
// RandomCG stays warn-only: its per-op time is dominated by
// delay-distribution table builds, too noisy to gate.
const defaultCritical = `^Benchmark(Figure1Scenario|Figure4Solve|ScalabilitySolve|WarmResolve|SolveMany|MinCostCG|LPLargeAspect|SolverAblation|ServeSaturation)`

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON snapshot to compare against")
	in := flag.String("in", "-", "bench output file (- for stdin)")
	threshold := flag.Float64("threshold", 25, "ns/op regression percentage that fails the run")
	critical := flag.String("critical", defaultCritical, "regexp of benchmarks whose regressions fail the run (others only warn)")
	write := flag.String("write", "", "also write the parsed results as a new JSON snapshot")
	ab := flag.Bool("ab", false, "run the -critical set on two test binaries, REF's then the current tree's (positional arguments), in alternating pairs")
	pairs := flag.Int("pairs", 10, "-ab: alternating pairs to run")
	benchtime := flag.String("benchtime", "200ms", "-ab: -test.benchtime of every run")
	flag.Parse()

	criticalRe, err := regexp.Compile(*critical)
	if err != nil {
		fatal(fmt.Errorf("bad -critical regexp: %w", err))
	}
	if *ab {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-ab takes two test binaries, REF's and the current tree's"))
		}
		os.Exit(runAB(flag.Arg(0), flag.Arg(1), *pairs, *benchtime, *critical, *threshold))
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	got, order, err := parseBench(src)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *baselinePath, err))
	}

	regressed, warned := 0, 0
	fmt.Printf("%-55s %14s %14s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, name := range order {
		cur := got[name]
		old, ok := base.Benchmarks[name]
		if !ok || old.NsPerOp == 0 {
			fmt.Printf("%-55s %14s %14.0f %9s\n", name, "(new)", cur.NsPerOp, "")
			continue
		}
		delta := (cur.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		mark := ""
		if delta > *threshold {
			if criticalRe.MatchString(name) {
				mark = "  REGRESSION"
				regressed++
			} else {
				mark = "  regression (non-blocking)"
				warned++
			}
		}
		fmt.Printf("%-55s %14.0f %14.0f %+8.1f%%%s\n", name, old.NsPerOp, cur.NsPerOp, delta, mark)
	}
	var gone []string
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Printf("%-55s %14.0f %14s\n", name, base.Benchmarks[name].NsPerOp, "(missing)")
	}

	if *write != "" {
		snap := baseline{
			Note:       "Benchmark snapshot produced by scripts/benchcmp; compare with BENCH_baseline.json.",
			Date:       time.Now().UTC().Format("2006-01-02"),
			Go:         runtime.Version(),
			Goos:       runtime.GOOS,
			Goarch:     runtime.GOARCH,
			Pkg:        "dmc",
			Benchmarks: got,
		}
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*write, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d benchmarks to %s\n", len(got), *write)
	}

	if warned > 0 {
		fmt.Printf("\n%d non-critical benchmark(s) regressed more than %.0f%% (not failing the run)\n", warned, *threshold)
	}
	if regressed > 0 {
		fmt.Printf("\n%d critical benchmark(s) regressed more than %.0f%% in ns/op\n", regressed, *threshold)
		os.Exit(1)
	}
	fmt.Printf("\nno critical ns/op regressions beyond %.0f%%\n", *threshold)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}
