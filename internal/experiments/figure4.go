package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dmc/internal/core"
	"dmc/internal/lp"
)

// Fig4Point is one Figure 4 position: the mean wall-clock time to solve a
// randomly characterized multipath problem of the given size.
type Fig4Point struct {
	Paths         int
	Transmissions int
	MeanSolve     time.Duration
	Variables     int
}

// Figure4Config sizes the solver-timing sweep.
type Figure4Config struct {
	// Runs per point; 0 means the paper's 100.
	Runs int
	Seed uint64
	// MaxPaths bounds the sweep; 0 means the paper's 10.
	MaxPaths int
}

func (c Figure4Config) runs() int {
	if c.Runs <= 0 {
		return 100
	}
	return c.Runs
}

func (c Figure4Config) maxPaths() int {
	if c.MaxPaths <= 0 {
		return 10
	}
	return c.MaxPaths
}

// RandomNetwork draws a random but valid deterministic network with the
// given path count, mirroring Figure 4's "problems of different sizes".
func RandomNetwork(rng *rand.Rand, paths, transmissions int) *core.Network {
	ps := make([]core.Path, paths)
	var total float64
	for i := range ps {
		bw := (10 + rng.Float64()*90) * core.Mbps
		total += bw
		ps[i] = core.Path{
			Bandwidth: bw,
			Delay:     time.Duration(50+rng.IntN(450)) * time.Millisecond,
			Loss:      rng.Float64() * 0.3,
			Cost:      rng.Float64(),
		}
	}
	n := core.NewNetwork(0.8*total, time.Second, ps...)
	n.Transmissions = transmissions
	n.CostBound = total // loose but finite: keeps the cost row in the LP
	return n
}

// Figure4 measures mean solve times for n ∈ {2…MaxPaths} paths and
// m ∈ {2,3} transmissions (the paper's axes; blackhole excluded from the
// path count). Each run draws a fresh random instance with a reusable
// per-point solver. The points run one after another: Figure 4's
// artifact is the per-solve wall time, which concurrent neighbors
// inflate (memory bandwidth, clock-down) on loaded multi-core hosts.
func Figure4(cfg Figure4Config) ([]Fig4Point, error) {
	sizes := cfg.maxPaths() - 1
	out := make([]Fig4Point, 2*sizes)
	for i := range out {
		m := 2 + i/sizes
		n := 2 + i%sizes
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(n*100+m)))
		solver := core.NewSolver()
		var total time.Duration
		vars := 0
		for run := 0; run < cfg.runs(); run++ {
			net := RandomNetwork(rng, n, m)
			start := time.Now()
			sol, err := solver.SolveQuality(net)
			if err != nil {
				return nil, fmt.Errorf("experiments: figure 4 n=%d m=%d: %w", n, m, err)
			}
			total += time.Since(start)
			vars = len(sol.X)
		}
		out[i] = Fig4Point{
			Paths:         n,
			Transmissions: m,
			MeanSolve:     total / time.Duration(cfg.runs()),
			Variables:     vars,
		}
	}
	return out, nil
}

// RenderFigure4 renders the timing sweep.
func RenderFigure4(points []Fig4Point) string {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprint(p.Paths),
			fmt.Sprint(p.Transmissions),
			fmt.Sprint(p.Variables),
			fmt.Sprint(p.MeanSolve),
		})
	}
	return RenderTable([]string{"paths", "transmissions", "variables", "mean solve"}, rows)
}

// SolverAblationRow compares the float and exact solvers on one instance
// size.
type SolverAblationRow struct {
	Paths      int
	FloatTime  time.Duration
	ExactTime  time.Duration
	MaxQualGap float64
}

// SolverAblation times the float simplex against the exact rational
// simplex (the CGAL stand-in) on random instances, verifying agreement.
func SolverAblation(maxPaths, runs int, seed uint64) ([]SolverAblationRow, error) {
	if maxPaths <= 0 {
		maxPaths = 5
	}
	if runs <= 0 {
		runs = 10
	}
	var out []SolverAblationRow
	solver := core.NewSolver()
	for n := 2; n <= maxPaths; n++ {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		row := SolverAblationRow{Paths: n}
		for run := 0; run < runs; run++ {
			net := RandomNetwork(rng, n, 2)
			start := time.Now()
			fsol, err := solver.SolveQuality(net)
			if err != nil {
				return nil, err
			}
			row.FloatTime += time.Since(start)

			enet, err := core.ExactFromFloat(net)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			esol, err := core.SolveQualityExact(enet)
			if err != nil {
				return nil, err
			}
			row.ExactTime += time.Since(start)

			eq, _ := esol.Quality.Float64()
			if gap := abs(fsol.Quality - eq); gap > row.MaxQualGap {
				row.MaxQualGap = gap
			}
		}
		row.FloatTime /= time.Duration(runs)
		row.ExactTime /= time.Duration(runs)
		out = append(out, row)
	}
	return out, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RenderSolverAblation renders the comparison.
func RenderSolverAblation(rows []SolverAblationRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.Paths),
			fmt.Sprint(r.FloatTime),
			fmt.Sprint(r.ExactTime),
			fmt.Sprintf("%.2e", r.MaxQualGap),
		})
	}
	return RenderTable([]string{"paths", "float simplex", "exact simplex", "max quality gap"}, out)
}

// LPBuildOnly builds (without solving) the Figure 4 LP, for isolating
// construction cost in benchmarks.
func LPBuildOnly(rng *rand.Rand, paths, transmissions int) (*lp.Problem, error) {
	return core.BuildLP(RandomNetwork(rng, paths, transmissions))
}

// ExactTableIVInstance exposes a canonical exact instance for benchmarks.
func ExactTableIVInstance() *core.ExactNetwork {
	return TableIIIExact(90, 800*time.Millisecond)
}
