// Command reproduce regenerates every table and figure of the paper's
// evaluation (§VII) and the DESIGN.md ablations, printing paper-style
// text tables to stdout.
//
// Usage:
//
//	reproduce -all                    # everything, full 100k-message runs
//	reproduce -table4 -fig2           # selected experiments
//	reproduce -all -messages 10000    # faster, reduced-fidelity pass
//
// Absolute solver times (Figure 4) depend on this machine; every other
// number is expected to match the paper as documented in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dmc/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	var (
		all      = fs.Bool("all", false, "run every experiment")
		table4   = fs.Bool("table4", false, "Table IV: exact optimal strategies (rate and lifetime sweeps)")
		fig2     = fs.Bool("fig2", false, "Figure 2: quality vs rate and vs lifetime, theory and simulation")
		exp2     = fs.Bool("exp2", false, "Experiment 2: random delays, optimized timeouts")
		fig3     = fs.Bool("fig3", false, "Figure 3: sensitivity to estimation errors")
		fig4     = fs.Bool("fig4", false, "Figure 4: LP solve times vs problem size")
		scale    = fs.Bool("scalability", false, "scalability sweep: dense/column-generation dispatch, paths 10–40, m 3–5")
		mincost  = fs.Bool("mincost", false, "min-cost scalability sweep: §VI-A cost minimization at a 0.5 quality floor through the same dense/CG dispatch, paths 10–40, m 3–5")
		resolve  = fs.Bool("resolve", false, "incremental re-solve drift sweep: warm vs cold solve times on a 40-path × 4-transmission trajectory")
		ablation = fs.Bool("ablation", false, "scheduler / solver / ack-scheme ablations")
		messages = fs.Int("messages", experiments.FullMessageCount, "messages per simulation run")
		seed     = fs.Uint64("seed", 1, "base random seed")
		fig4Runs = fs.Int("fig4runs", 100, "solver timing runs per point")
		csvDir   = fs.String("csv", "", "also write plot-ready CSV files into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *all {
		*table4, *fig2, *exp2, *fig3, *fig4, *scale, *mincost, *resolve, *ablation = true, true, true, true, true, true, true, true, true
	}
	if !*table4 && !*fig2 && !*exp2 && !*fig3 && !*fig4 && !*scale && !*mincost && !*resolve && !*ablation {
		fs.Usage()
		return fmt.Errorf("select experiments (or -all)")
	}

	section := func(title string) func() {
		start := time.Now()
		fmt.Printf("==== %s ====\n", title)
		return func() { fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond)) }
	}
	writeCSV := func(name, content string) error {
		if *csvDir == "" {
			return nil
		}
		return experiments.WriteCSVFile(*csvDir, name, content)
	}

	if *table4 {
		done := section("Table IV (top): optimal strategies, δ=800 ms, λ sweep [exact arithmetic]")
		rows, err := experiments.Table4Top()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable4(rows))
		if err := writeCSV("table4_top.csv", experiments.Table4CSV(rows)); err != nil {
			return err
		}
		done()

		done = section("Table IV (bottom): optimal strategies, λ=90 Mbps, δ sweep [exact arithmetic]")
		rows, err = experiments.Table4Bottom()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable4(rows))
		if err := writeCSV("table4_bottom.csv", experiments.Table4CSV(rows)); err != nil {
			return err
		}
		done()
	}

	if *fig2 {
		cfg := experiments.Figure2Config{Messages: *messages, Seed: *seed}
		done := section("Figure 2 (top): quality vs data rate, δ=800 ms")
		pts, err := experiments.Figure2Top(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure2(pts, "lambda (Mbps)"))
		if err := writeCSV("figure2_top.csv", experiments.Fig2CSV(pts, "lambda_mbps")); err != nil {
			return err
		}
		done()

		done = section("Figure 2 (bottom): quality vs lifetime, λ=90 Mbps")
		pts, err = experiments.Figure2Bottom(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure2(pts, "delta (ms)"))
		if err := writeCSV("figure2_bottom.csv", experiments.Fig2CSV(pts, "delta_ms")); err != nil {
			return err
		}
		done()
	}

	if *exp2 {
		done := section("Experiment 2: random delays (Table V), Eq. 34 timeouts")
		r, err := experiments.Experiment2(*messages, *seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderExperiment2(r))
		done()
	}

	if *fig3 {
		cfg := experiments.Figure3Config{Messages: *messages, Seed: *seed}
		for _, param := range []experiments.Fig3Param{
			experiments.Fig3Bandwidth, experiments.Fig3Delay, experiments.Fig3Loss,
		} {
			done := section(fmt.Sprintf("Figure 3: sensitivity to %s estimation error (λ=90 Mbps, δ=800 ms)", param))
			pts, err := experiments.Figure3(param, cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFigure3(param, pts))
			if err := writeCSV(fmt.Sprintf("figure3_%s.csv", param), experiments.Fig3CSV(param, pts)); err != nil {
				return err
			}
			done()
		}
	}

	if *fig4 {
		done := section("Figure 4: LP solve time vs paths and transmissions")
		pts, err := experiments.Figure4(experiments.Figure4Config{Runs: *fig4Runs, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFigure4(pts))
		if err := writeCSV("figure4.csv", experiments.Fig4CSV(pts)); err != nil {
			return err
		}
		done()
	}

	if *scale {
		done := section("Scalability: dense / column-generation dispatch beyond Figure 4's sizes")
		pts, err := experiments.Scalability(experiments.ScalabilityConfig{Seed: *seed, VerifyDense: true})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderScalability(pts))
		if err := writeCSV("scalability.csv", experiments.ScalabilityCSV(pts)); err != nil {
			return err
		}
		done()
	}

	if *mincost {
		done := section("Min-cost scalability: §VI-A dispatch at a 0.5 quality floor, beyond the old dense-only cap")
		pts, err := experiments.Scalability(experiments.ScalabilityConfig{Seed: *seed, VerifyDense: true, MinCost: true})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderScalability(pts))
		if err := writeCSV("scalability_mincost.csv", experiments.ScalabilityCSV(pts)); err != nil {
			return err
		}
		done()
	}

	if *resolve {
		done := section("Incremental re-solve: warm vs cold on a λ/µ/loss/delay drift trajectory (40 paths × 4 transmissions)")
		pts, err := experiments.ResolveSweep(experiments.ResolveConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderResolve(pts))
		if err := writeCSV("resolve.csv", experiments.ResolveCSV(pts)); err != nil {
			return err
		}
		done()
	}

	if *ablation {
		done := section("Ablation: packet scheduler (Algorithm 1 vs baselines), Experiment 1 scenario")
		rows, err := experiments.SchedulerAblation(*messages, *seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSchedulerAblation(rows))
		done()

		done = section("Ablation: float simplex vs exact rational simplex")
		srows, err := experiments.SolverAblation(5, 10, *seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSolverAblation(srows))
		done()

		done = section("Ablation: acknowledgment scheme under 30% ack loss (§VIII-C)")
		arows, err := experiments.AckAblation(*messages/5, 0.3, *seed)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAckAblation(arows, 0.3))
		done()
	}
	return nil
}
