package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"dmc/internal/conc"
	"dmc/internal/core"
	"dmc/internal/lp"
)

// ScalPoint is one position of the scalability sweep: how the solver
// handles a combination space of the given size, and through which
// dispatch path.
type ScalPoint struct {
	Paths         int
	Transmissions int
	// Combinations is the full (n+1)^m space the dense solver would
	// have to materialize (-1 when it exceeds core.DenseLimit).
	Combinations int
	// Dispatch is which solve core ran (dense, cg).
	Dispatch core.Dispatch
	// Columns is how many columns the master problem actually held.
	Columns int
	// CGIterations counts restricted-master solves (0 for dense paths).
	CGIterations int
	MeanSolve    time.Duration
	Quality      float64
	// DenseAgrees reports the gap to the optimum of the full LP over
	// every combination where that LP was tractable to solve: quality
	// gap for the quality sweep, relative cost gap for the min-cost
	// sweep; -1 when it was skipped.
	DenseAgrees float64
}

// ScalabilityConfig sizes the sweep past the paper's Figure 4 axes:
// paths 10→40 and transmissions 3→5, the regime where dense n^m
// enumeration stops being an option.
type ScalabilityConfig struct {
	// Paths lists the path counts; nil means {10, 20, 30, 40}.
	Paths []int
	// Transmissions lists m values; nil means {3, 4, 5}.
	Transmissions []int
	// Runs per point; 0 means 10.
	Runs int
	Seed uint64
	// VerifyDense cross-checks the scalable solve against the full LP
	// of core.BuildLP, solved by lp.Solver, wherever the space holds at
	// most 2^16 combinations.
	VerifyDense bool
	// Parallel fans grid points across GOMAXPROCS workers (off by
	// default: the artifact is the per-solve wall time).
	Parallel bool
	// MinCost switches the sweep to the §VI-A objective: each instance
	// solves SolveMinCost at the MinQuality floor instead of
	// SolveQuality, exercising the min-cost column-generation dispatch
	// at the same scales. The dense cross-check then compares optimal
	// costs (relative gap) rather than qualities.
	MinCost bool
	// MinQuality is the §VI-A quality floor; zero means 0.5.
	MinQuality float64
}

func (c ScalabilityConfig) minQuality() float64 {
	if c.MinQuality <= 0 {
		return 0.5
	}
	return c.MinQuality
}

func (c ScalabilityConfig) paths() []int {
	if len(c.Paths) == 0 {
		return []int{10, 20, 30, 40}
	}
	return c.Paths
}

func (c ScalabilityConfig) transmissions() []int {
	if len(c.Transmissions) == 0 {
		return []int{3, 4, 5}
	}
	return c.Transmissions
}

func (c ScalabilityConfig) runs() int {
	if c.Runs <= 0 {
		return 10
	}
	return c.Runs
}

// Scalability measures mean solve times across the configured grid with
// the automatic dense/CG dispatch, optionally verifying the
// scalable result against the full LP where that is tractable.
func Scalability(cfg ScalabilityConfig) ([]ScalPoint, error) {
	paths, trans := cfg.paths(), cfg.transmissions()
	out := make([]ScalPoint, len(paths)*len(trans))
	forEach := func(n int, fn func(i int) error) error {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if cfg.Parallel {
		forEach = conc.ForEach
	}
	err := forEach(len(out), func(i int) error {
		nPaths := paths[i/len(trans)]
		m := trans[i%len(trans)]
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(nPaths*100+m)))
		pt := ScalPoint{Paths: nPaths, Transmissions: m, DenseAgrees: -1}
		var total time.Duration
		for run := 0; run < cfg.runs(); run++ {
			net := RandomNetwork(rng, nPaths, m)
			start := time.Now()
			var sol *core.Solution
			var err error
			if cfg.MinCost {
				sol, err = core.SolveMinCost(net, cfg.minQuality())
			} else {
				sol, err = core.SolveQuality(net)
			}
			if err != nil {
				return fmt.Errorf("experiments: scalability n=%d m=%d: %w", nPaths, m, err)
			}
			total += time.Since(start)
			pt.Dispatch = sol.Stats.Dispatch
			pt.Columns = sol.Stats.Columns
			pt.CGIterations = sol.Stats.CGIterations
			pt.Quality = sol.Quality

			if cfg.VerifyDense && run == 0 {
				gap, ok, err := verifyAgainstDense(cfg, net, sol)
				if err != nil {
					return fmt.Errorf("experiments: scalability n=%d m=%d dense verification: %w", nPaths, m, err)
				}
				if ok {
					pt.DenseAgrees = gap
				}
			}
		}
		pt.MeanSolve = total / time.Duration(cfg.runs())
		pt.Combinations = denseSpace(nPaths, m)
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// denseSpace returns (n+1)^m, or -1 when it exceeds core.DenseLimit.
func denseSpace(paths, m int) int {
	space := 1
	for i := 0; i < m; i++ {
		if space > core.DenseLimit/(paths+1) {
			return -1
		}
		space *= paths + 1
	}
	return space
}

// verifyDenseLimit caps the combination spaces the sweep cross-checks
// against the full LP: beyond it a verification solve costs orders of
// magnitude more than the measurement itself (the core differential
// tests cover agreement exhaustively at small sizes).
const verifyDenseLimit = 1 << 16

// verifyAgainstDense solves the network's full LP — one column per
// combination, as core.BuildLP builds it — on lp.Solver and returns the
// gap to the scalable solve: quality gap for the quality sweep, relative
// cost gap for the min-cost sweep; ok = false when the space is too
// large to check. A reference-solve failure is an error, not a silent
// skip — the sweep's verification column must never mask a broken
// solve as "not checked".
func verifyAgainstDense(cfg ScalabilityConfig, net *core.Network, sol *core.Solution) (float64, bool, error) {
	if space := denseSpace(len(net.Paths), net.Transmissions); space < 0 || space > verifyDenseLimit {
		return 0, false, nil
	}
	p, err := core.BuildLP(net)
	if err != nil {
		return 0, false, err
	}
	if cfg.MinCost {
		if p, err = minCostLP(p, cfg.minQuality()); err != nil {
			return 0, false, err
		}
	}
	ref, err := lp.NewSolver().Solve(p)
	if err != nil {
		return 0, false, err
	}
	if ref.Status != lp.Optimal {
		return 0, false, fmt.Errorf("full LP %v", ref.Status)
	}
	gap := sol.Quality - ref.Objective
	if cfg.MinCost {
		gap = (sol.Cost() - ref.Objective) / (1 + ref.Objective)
	}
	return math.Abs(gap), true, nil
}

// minCostLP turns the full quality LP into the §VI-A min-cost LP over
// the same columns: minimize the cost row's coefficients (λ times each
// combination's expected cost) under the bandwidth and conservation
// rows and a quality floor over the quality objective's coefficients.
// The cost row itself goes, as in core's min-cost master.
func minCostLP(q *lp.Problem, floor float64) (*lp.Problem, error) {
	i := slices.IndexFunc(q.Constraints, func(c lp.Constraint) bool { return c.Name == "cost" })
	if i < 0 {
		return nil, errors.New("experiments: full LP has no cost row (unbounded cost budget)")
	}
	p := lp.NewProblem(lp.Minimize, q.Constraints[i].Coeffs)
	for k, c := range q.Constraints {
		if k != i {
			p.AddNamedConstraint(c.Name, c.Coeffs, c.Rel, c.RHS)
		}
	}
	p.AddNamedConstraint("quality", q.Objective, lp.GE, floor)
	return p, nil
}

// RenderScalability renders the sweep.
func RenderScalability(points []ScalPoint) string {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		space := fmt.Sprint(p.Combinations)
		if p.Combinations < 0 {
			space = "> 2^22"
		}
		agrees := "—"
		if p.DenseAgrees >= 0 {
			agrees = fmt.Sprintf("%.1e", p.DenseAgrees)
		}
		rows = append(rows, []string{
			fmt.Sprint(p.Paths),
			fmt.Sprint(p.Transmissions),
			space,
			string(p.Dispatch),
			fmt.Sprint(p.Columns),
			fmt.Sprint(p.CGIterations),
			fmt.Sprint(p.MeanSolve),
			agrees,
		})
	}
	return RenderTable(
		[]string{"paths", "transmissions", "combinations", "dispatch", "columns", "cg iters", "mean solve", "dense gap"},
		rows)
}
