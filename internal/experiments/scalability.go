package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dmc/internal/conc"
	"dmc/internal/core"
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
	// DenseAgrees reports |Q_cg − Q_dense| where a verification dense
	// solve was tractable; -1 when it was skipped.
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
	// VerifyDense cross-checks the scalable solve against forced dense
	// enumeration wherever the space fits core.DenseLimit.
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
// scalable result against dense enumeration where that is tractable.
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
		solver := core.NewSolver()
		pt := ScalPoint{Paths: nPaths, Transmissions: m, DenseAgrees: -1}
		var total time.Duration
		for run := 0; run < cfg.runs(); run++ {
			net := RandomNetwork(rng, nPaths, m)
			start := time.Now()
			var sol *core.Solution
			var err error
			if cfg.MinCost {
				sol, err = solver.SolveMinCost(net, cfg.minQuality())
			} else {
				sol, err = solver.SolveQuality(net)
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
// against forced dense enumeration: beyond it a dense verification
// solve costs orders of magnitude more than the measurement itself (the
// core differential tests cover agreement exhaustively at small sizes).
const verifyDenseLimit = 1 << 16

// verifyAgainstDense re-solves with forced dense enumeration and
// returns the gap to the scalable solve — quality gap for the quality
// sweep, relative cost gap for the min-cost sweep; ok = false when the
// space is too large to check. A dense-solve failure is an error, not a
// silent skip — the sweep's verification column must never mask a
// broken solve as "not checked".
func verifyAgainstDense(cfg ScalabilityConfig, net *core.Network, sol *core.Solution) (float64, bool, error) {
	if space := denseSpace(len(net.Paths), net.Transmissions); space < 0 || space > verifyDenseLimit {
		return 0, false, nil
	}
	dense := core.NewSolver()
	dense.DenseThreshold = core.DenseLimit
	var gap float64
	if cfg.MinCost {
		dsol, err := dense.SolveMinCost(net, cfg.minQuality())
		if err != nil {
			return 0, false, err
		}
		gap = (sol.Cost() - dsol.Cost()) / (1 + dsol.Cost())
	} else {
		dsol, err := dense.SolveQuality(net)
		if err != nil {
			return 0, false, err
		}
		gap = sol.Quality - dsol.Quality
	}
	if gap < 0 {
		gap = -gap
	}
	return gap, true, nil
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
