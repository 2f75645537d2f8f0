// Command mpopt solves a deadline-aware multipath optimization from a
// JSON network description.
//
// Usage:
//
//	mpopt -in network.json                 # maximize quality (Eq. 10)
//	mpopt -in network.json -objective mincost -min-quality 0.95
//	mpopt -in network.json -objective random   # §VI-B random delays
//	cat network.json | mpopt               # reads stdin without -in
//
// The input schema (internal/scenario):
//
//	{
//	  "rate_mbps": 90, "lifetime_ms": 800,
//	  "paths": [
//	    {"name": "path1", "bandwidth_mbps": 80, "delay_ms": 450, "loss": 0.2},
//	    {"name": "path2", "bandwidth_mbps": 20, "delay_ms": 150}
//	  ]
//	}
//
// Paths may carry "delay_gamma": {"loc_ms", "shape", "scale_ms"} for the
// random-delay model.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dmc/internal/core"
	"dmc/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpopt:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("mpopt", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "input JSON file (default: stdin)")
		objective  = fs.String("objective", "quality", "quality | mincost | random")
		minQuality = fs.Float64("min-quality", 0.9, "quality floor for -objective mincost")
		exact      = fs.Bool("exact", false, "solve with exact rational arithmetic (quality objective only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r io.Reader = stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var jn scenario.Network
	if err := scenario.Load(r, &jn); err != nil {
		return err
	}
	n, err := jn.ToNetwork()
	if err != nil {
		return err
	}

	switch *objective {
	case "quality":
		if *exact {
			en, err := core.ExactFromFloat(n)
			if err != nil {
				return err
			}
			sol, err := core.SolveQualityExact(en)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, sol)
			return nil
		}
		sol, err := core.SolveQuality(n)
		if err != nil {
			return err
		}
		printSolution(stdout, n, sol)
		printTimeouts(stdout, sol)
		return nil

	case "mincost":
		sol, err := core.SolveMinCost(n, *minQuality)
		if err != nil {
			return err
		}
		printSolution(stdout, n, sol)
		printTimeouts(stdout, sol)
		fmt.Fprintf(stdout, "total cost: %.4g per second (quality floor %.2f%%)\n", sol.Cost(), *minQuality*100)
		return nil

	case "random":
		to, err := core.OptimalTimeouts(n, core.TimeoutOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "optimized timeouts: %v\n", to)
		sol, err := core.SolveQualityRandom(n, to)
		if err != nil {
			return err
		}
		printSolution(stdout, n, sol)
		return nil

	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}
}

func printSolution(w io.Writer, n *core.Network, sol *core.Solution) {
	fmt.Fprintf(w, "quality Q = %.4f (%.2f%% of λ = %.4g Mbps arrives within %v)\n",
		sol.Quality, sol.Quality*100, n.Rate/core.Mbps, n.Lifetime)
	fmt.Fprintln(w, "strategy (combination = transmission path, then retransmission path; 0 = drop):")
	for _, cs := range sol.ActiveCombos(1e-9) {
		fmt.Fprintf(w, "  %-8s share %-8.4g delivers %.4f\n", cs.Combo, cs.Fraction, cs.DeliveryProb)
	}
	for i, p := range n.Paths {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("path %d", i+1)
		}
		fmt.Fprintf(w, "  %-8s sends %.4g / %.4g Mbps\n", name, sol.SentRate(i)/core.Mbps, p.Bandwidth/core.Mbps)
	}
	if drop := sol.DropRate(); drop > 0 {
		fmt.Fprintf(w, "  dropped  %.4g Mbps via blackhole\n", drop/core.Mbps)
	}
}

// printTimeouts prints the Eq. 4 retransmission timeouts a
// deterministic-delay solution assumes. A random-delay solution was
// solved with its own optimized table, printed above it, so it gets
// none.
func printTimeouts(w io.Writer, sol *core.Solution) {
	fmt.Fprintf(w, "retransmission timeouts (Eq. 4, no margin): ")
	for i, t := range sol.Timeouts(0) {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "t%d=%v", i+1, t.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
}
