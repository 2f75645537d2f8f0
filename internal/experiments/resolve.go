package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dmc/internal/core"
)

// ResolvePoint is one step of the incremental re-solve drift sweep: the
// same network shape with λ/µ/loss/delay drifted, solved warm
// (core.Solver.Resolve, persistent state) and cold (a fresh solve of the
// same instance), with the agreement gap between the two optima.
type ResolvePoint struct {
	Step int
	// WarmSolve and ColdSolve are the wall-clock times of the
	// incremental and from-scratch solves of the identical instance.
	WarmSolve time.Duration
	ColdSolve time.Duration
	// QualityGap is |Q_warm − Q_cold| (must sit within solver tolerance).
	QualityGap float64
	Dispatch   core.Dispatch
	// PhaseISkipped reports the warm solve's first column-generation
	// master re-installed the previous LP basis (always false on the
	// dense dispatch, which solves cold); PoolHits counts repriced CG
	// pool columns.
	PhaseISkipped bool
	PoolHits      int
	CGIterations  int
}

// ResolveConfig sizes the drift sweep. The default shape is the
// ROADMAP's CG-scale target: 40 paths × 4 transmissions, a 2.8M-column
// combination space.
type ResolveConfig struct {
	// Paths and Transmissions fix the network shape; zero means 40 × 4.
	Paths         int
	Transmissions int
	// Steps is the trajectory length; zero means 20.
	Steps int
	// Drift is the maximum relative per-step drift of every estimated
	// characteristic (λ, µ, loss, delay, bandwidth, cost); zero means
	// 0.1 — the §VIII-A "solve only when estimates vary significantly"
	// threshold.
	Drift float64
	Seed  uint64
}

func (c ResolveConfig) paths() int {
	if c.Paths <= 0 {
		return 40
	}
	return c.Paths
}

func (c ResolveConfig) transmissions() int {
	if c.Transmissions <= 0 {
		return 4
	}
	return c.Transmissions
}

func (c ResolveConfig) steps() int {
	if c.Steps <= 0 {
		return 20
	}
	return c.Steps
}

func (c ResolveConfig) drift() float64 {
	if c.Drift <= 0 {
		return 0.1
	}
	return c.Drift
}

// DriftNetwork returns a copy of n with every estimated characteristic
// perturbed by up to ±maxRel relative (losses clamped to [0, 1]); the
// shape is unchanged, which is exactly the regime the incremental
// re-solve engine targets.
func DriftNetwork(rng *rand.Rand, n *core.Network, maxRel float64) *core.Network {
	rel := func() float64 { return 1 + (rng.Float64()*2-1)*maxRel }
	cp := *n
	cp.Paths = append([]core.Path(nil), n.Paths...)
	cp.Rate *= rel()
	if cp.CostBound > 0 && cp.CostBound < 1e308 {
		cp.CostBound *= rel()
	}
	for i := range cp.Paths {
		p := &cp.Paths[i]
		p.Bandwidth *= rel()
		p.Delay = time.Duration(float64(p.Delay) * rel())
		p.Loss *= rel()
		if p.Loss > 1 {
			p.Loss = 1
		}
		p.Cost *= rel()
	}
	return &cp
}

// ResolveSweep replays one drift trajectory through a warm solver and
// one-shot cold solves side by side, timing both on every step. The
// warm solver is primed on the base instance (not reported — it starts
// cold there); each subsequent step drifts the coefficients and solves
// the identical instance twice.
func ResolveSweep(cfg ResolveConfig) ([]ResolvePoint, error) {
	rng := rand.New(rand.NewPCG(cfg.Seed, uint64(cfg.paths()*100+cfg.transmissions())))
	base := RandomNetwork(rng, cfg.paths(), cfg.transmissions())

	warm := core.NewSolver()
	if _, err := warm.Resolve(base); err != nil {
		return nil, fmt.Errorf("experiments: resolve sweep prime: %w", err)
	}

	out := make([]ResolvePoint, cfg.steps())
	net := base
	for step := range out {
		net = DriftNetwork(rng, net, cfg.drift())

		start := time.Now()
		wsol, err := warm.Resolve(net)
		warmTime := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: resolve sweep step %d (warm): %w", step, err)
		}

		start = time.Now()
		csol, err := core.SolveQuality(net)
		coldTime := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: resolve sweep step %d (cold): %w", step, err)
		}

		gap := wsol.Quality - csol.Quality
		if gap < 0 {
			gap = -gap
		}
		out[step] = ResolvePoint{
			Step:          step + 1,
			WarmSolve:     warmTime,
			ColdSolve:     coldTime,
			QualityGap:    gap,
			Dispatch:      wsol.Stats.Dispatch,
			PhaseISkipped: wsol.Stats.PhaseISkipped,
			PoolHits:      wsol.Stats.PoolHits,
			CGIterations:  wsol.Stats.CGIterations,
		}
	}
	return out, nil
}

// RenderResolve renders the drift sweep with a mean-speedup footer.
func RenderResolve(points []ResolvePoint) string {
	rows := make([][]string, 0, len(points))
	var warmTotal, coldTotal time.Duration
	for _, p := range points {
		warmTotal += p.WarmSolve
		coldTotal += p.ColdSolve
		rows = append(rows, []string{
			fmt.Sprint(p.Step),
			string(p.Dispatch),
			fmt.Sprint(p.WarmSolve),
			fmt.Sprint(p.ColdSolve),
			fmt.Sprintf("%.1f×", float64(p.ColdSolve)/float64(max64(p.WarmSolve, 1))),
			fmt.Sprint(p.PhaseISkipped),
			fmt.Sprint(p.PoolHits),
			fmt.Sprintf("%.1e", p.QualityGap),
		})
	}
	table := RenderTable(
		[]string{"step", "dispatch", "warm solve", "cold solve", "speedup", "phase1 skipped", "pool hits", "quality gap"},
		rows)
	if warmTotal > 0 {
		table += fmt.Sprintf("mean speedup: %.1f× (warm total %v, cold total %v)\n",
			float64(coldTotal)/float64(warmTotal), warmTotal.Round(time.Microsecond), coldTotal.Round(time.Microsecond))
	}
	return table
}

func max64(d time.Duration, floor time.Duration) time.Duration {
	if d < floor {
		return floor
	}
	return d
}
