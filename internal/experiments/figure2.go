package experiments

import (
	"fmt"
	"time"

	"dmc/internal/conc"
	"dmc/internal/core"
	"dmc/internal/proto"
)

// Fig2Point is one x-position of Figure 2 with its four curves:
// simulated multipath, theoretical multipath, and the two single-path
// theoretical baselines.
type Fig2Point struct {
	// X is λ in Mbps (top plot) or δ in milliseconds (bottom plot).
	X float64
	// MultipathSim is the measured quality of the full protocol.
	MultipathSim float64
	// MultipathTheory is the LP optimum.
	MultipathTheory float64
	// Path1Theory and Path2Theory are the single-path LP optima.
	Path1Theory float64
	Path2Theory float64
}

// Figure2Config sizes the simulations.
type Figure2Config struct {
	// Messages per simulated point; 0 means FullMessageCount.
	Messages int
	// Seed drives all randomness.
	Seed uint64
}

func (c Figure2Config) messages() int {
	if c.Messages <= 0 {
		return FullMessageCount
	}
	return c.Messages
}

// figure2Point computes all four curves for one scenario.
func figure2Point(n *core.Network, x float64, cfg Figure2Config) (Fig2Point, error) {
	pt := Fig2Point{X: x}

	sol, err := core.SolveQuality(n)
	if err != nil {
		return pt, err
	}
	pt.MultipathTheory = sol.Quality

	for i := 0; i < 2; i++ {
		si, err := core.SolveQuality(n.SinglePath(i))
		if err != nil {
			return pt, err
		}
		if i == 0 {
			pt.Path1Theory = si.Quality
		} else {
			pt.Path2Theory = si.Quality
		}
	}

	to, err := TrueTimeouts()
	if err != nil {
		return pt, err
	}
	q, err := simulateQuality(proto.Config{
		Solution:     sol,
		Timeouts:     to,
		TruePaths:    TrueLinks(),
		MessageCount: cfg.messages(),
	}, cfg.Seed+uint64(x*1000))
	if err != nil {
		return pt, err
	}
	pt.MultipathSim = q
	return pt, nil
}

// Figure2Top regenerates the top plot: quality vs λ ∈ {10…150} Mbps at
// δ = 800 ms. Points are independent (per-point seeds), so the sweep
// fans across GOMAXPROCS workers.
func Figure2Top(cfg Figure2Config) ([]Fig2Point, error) {
	out := make([]Fig2Point, 15)
	err := conc.ForEach(len(out), func(i int) error {
		rate := 10.0 + 10*float64(i)
		n := TableIIINetwork(rate, 800*time.Millisecond)
		pt, err := figure2Point(n, rate, cfg)
		if err != nil {
			return fmt.Errorf("experiments: figure 2 top λ=%v: %w", rate, err)
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure2Bottom regenerates the bottom plot: quality vs δ ∈ {100…1150} ms
// at λ = 90 Mbps, fanned across GOMAXPROCS workers.
func Figure2Bottom(cfg Figure2Config) ([]Fig2Point, error) {
	out := make([]Fig2Point, 22)
	err := conc.ForEach(len(out), func(i int) error {
		ms := 100 + 50*i
		δ := time.Duration(ms) * time.Millisecond
		n := TableIIINetwork(90, δ)
		pt, err := figure2Point(n, float64(ms), cfg)
		if err != nil {
			return fmt.Errorf("experiments: figure 2 bottom δ=%v: %w", δ, err)
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderFigure2 renders the series as an aligned table (one row per x).
func RenderFigure2(points []Fig2Point, xLabel string) string {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%g", p.X),
			fmt.Sprintf("%.2f%%", p.MultipathSim*100),
			fmt.Sprintf("%.2f%%", p.MultipathTheory*100),
			fmt.Sprintf("%.2f%%", p.Path1Theory*100),
			fmt.Sprintf("%.2f%%", p.Path2Theory*100),
		})
	}
	return RenderTable([]string{xLabel, "multipath(sim)", "multipath(theory)", "path1(theory)", "path2(theory)"}, rows)
}
