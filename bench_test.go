// Benchmarks regenerating every table and figure of the paper (§VII), one
// per evaluation artifact, plus component micro-benchmarks for the
// substrates. Absolute times are machine-dependent; the shapes (who wins,
// how cost scales with paths and transmissions) are the reproduction
// target. See EXPERIMENTS.md.
package dmc_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmc"
	"dmc/internal/conc"
	"dmc/internal/core"
	"dmc/internal/dist"
	"dmc/internal/experiments"
	"dmc/internal/lp"
	"dmc/internal/netsim"
	"dmc/internal/scenario"
	"dmc/internal/sched"
)

// BenchmarkFigure1Scenario solves the motivating two-path example (§II).
func BenchmarkFigure1Scenario(b *testing.B) {
	n := dmc.NewNetwork(10*dmc.Mbps, time.Second,
		dmc.Path{Bandwidth: 10 * dmc.Mbps, Delay: 600 * time.Millisecond, Loss: 0.10},
		dmc.Path{Bandwidth: 1 * dmc.Mbps, Delay: 200 * time.Millisecond, Loss: 0},
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := dmc.SolveQuality(n)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Quality < 1-1e-9 {
			b.Fatal("wrong quality")
		}
	}
}

// BenchmarkTable4RateSweep regenerates Table IV (top) with the exact
// rational solver.
func BenchmarkTable4RateSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4Top()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 15 {
			b.Fatal("row count")
		}
	}
}

// BenchmarkTable4LifetimeSweep regenerates Table IV (bottom) with the
// exact rational solver.
func BenchmarkTable4LifetimeSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4Bottom()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 22 {
			b.Fatalf("row count %d", len(rows))
		}
	}
}

// BenchmarkFigure2RateCurve regenerates the Figure 2 (top) series at
// reduced message count (full runs live in cmd/reproduce).
func BenchmarkFigure2RateCurve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure2Top(experiments.Figure2Config{Messages: 2000, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[8].MultipathSim*100, "quality@λ90_%")
	}
}

// BenchmarkFigure2LifetimeCurve regenerates the Figure 2 (bottom) series
// at reduced message count.
func BenchmarkFigure2LifetimeCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure2Bottom(experiments.Figure2Config{Messages: 2000, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkExp2Timeouts optimizes the Eq. 34 retransmission timeouts for
// the Table V network.
func BenchmarkExp2Timeouts(b *testing.B) {
	n := experiments.TableVNetwork()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		to, err := core.OptimalTimeouts(n, core.TimeoutOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := to.Get(0, 1); !ok {
			b.Fatal("t12 undefined")
		}
	}
}

// BenchmarkExp2Simulation runs the Experiment 2 random-delay validation
// at reduced message count.
func BenchmarkExp2Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Experiment2(5000, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SimQuality()*100, "quality_%")
	}
}

// BenchmarkFigure3Sensitivity sweeps one sensitivity panel at reduced
// message count.
func BenchmarkFigure3Sensitivity(b *testing.B) {
	for _, param := range []experiments.Fig3Param{
		experiments.Fig3Bandwidth, experiments.Fig3Delay, experiments.Fig3Loss,
	} {
		b.Run(param.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Figure3(param, experiments.Figure3Config{Messages: 500, Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				if len(pts) == 0 {
					b.Fatal("no points")
				}
			}
		})
	}
}

// BenchmarkFigure4Solve is the Figure 4 measurement itself: LP solve time
// by path count and transmissions (the paper's axes). One fixed random
// instance per size; the per-op time is the figure's y-value.
func BenchmarkFigure4Solve(b *testing.B) {
	for _, m := range []int{2, 3} {
		for _, paths := range []int{2, 4, 6, 8, 10} {
			b.Run(fmt.Sprintf("paths=%d/trans=%d", paths, m), func(b *testing.B) {
				rng := rand.New(rand.NewPCG(7, uint64(paths*10+m)))
				n := experiments.RandomNetwork(rng, paths, m)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.SolveQuality(n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScalabilitySolve measures the scalable dispatch past
// Figure 4's sizes: column generation on combination spaces from 4,096
// (paths=15/trans=3, just past the dense threshold) up to 4.75 billion
// (paths=40/trans=6), which dense enumeration cannot reasonably
// materialize, and on a 120-path m = 2 space. One fixed random instance
// per size, solved one-shot.
func BenchmarkScalabilitySolve(b *testing.B) {
	for _, size := range []struct{ paths, trans int }{
		{15, 3},  // 4096 combos: column generation
		{10, 4},  // 14641: column generation
		{20, 4},  // 194481: column generation
		{40, 4},  // 2.8M: column generation
		{40, 6},  // 4.75G: column generation, pricing-bound
		{120, 2}, // 14641: column generation at m = 2, with no send-time grid
	} {
		b.Run(fmt.Sprintf("paths=%d/trans=%d", size.paths, size.trans), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(7, uint64(size.paths*10+size.trans)))
			n := experiments.RandomNetwork(rng, size.paths, size.trans)
			var work workCounts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := core.SolveQuality(n)
				if err != nil {
					b.Fatal(err)
				}
				work.add(sol.Stats)
			}
			work.report(b, b.N)
		})
	}
}

// workCounts sums the solve core's work over a fixed sequence of solves
// and reports it per op from Solution.Stats: CG iterations, the columns
// each solve's master held, LP pivots, and the pricing oracle's search
// nodes. The solve core is deterministic, so over a fixed sequence these
// counts repeat exactly from run to run and show a change in its work
// where ns/op sits near its noise. A benchmark that repeats one solve
// counts its timed loop. One that cycles through a ring of drifted
// networks reports an untimed replay of one pass instead (replayCounts):
// which networks its timed loop covers, and the warm state it carries,
// depend on where b.N stops. It is safe for concurrent use, and a nil
// *workCounts counts nothing.
type workCounts struct{ iters, cols, pivots, nodes atomic.Int64 }

func (w *workCounts) add(st dmc.SolveStats) {
	if w == nil {
		return
	}
	w.iters.Add(int64(st.CGIterations))
	w.cols.Add(int64(st.Columns))
	w.pivots.Add(int64(st.LPPivots))
	w.nodes.Add(int64(st.PriceNodes))
}

// report reports the counts per op, over ops operations.
func (w *workCounts) report(b *testing.B, ops int) {
	n := float64(ops)
	b.ReportMetric(float64(w.iters.Load())/n, "cg-iters/op")
	b.ReportMetric(float64(w.cols.Load())/n, "cols/op")
	b.ReportMetric(float64(w.pivots.Load())/n, "pivots/op")
	b.ReportMetric(float64(w.nodes.Load())/n, "price-nodes/op")
}

// replayCounts returns a report of the counts of one untimed replay of
// ops operations, per op: pass runs them from a fresh start, primed as
// the timed loop is, and counts them into its argument. The replay runs
// once, at the first report, however often the benchmark runs.
func replayCounts(ops int, pass func(*workCounts) error) func(*testing.B) {
	counts := sync.OnceValues(func() (*workCounts, error) {
		var w workCounts
		return &w, pass(&w)
	})
	return func(b *testing.B) {
		b.StopTimer()
		w, err := counts()
		if err != nil {
			b.Fatal(err)
		}
		w.report(b, ops)
	}
}

// warmResolveRing returns a base instance plus a ring of successively
// ≤10%-drifted variants of it (λ, µ, loss, delay, bandwidth, cost all
// perturbed; shape fixed) — the §VIII-A adaptive re-solve workload.
func warmResolveRing(paths, trans, n int) (*dmc.Network, []*dmc.Network) {
	rng := rand.New(rand.NewPCG(7, uint64(paths*100+trans)))
	base := experiments.RandomNetwork(rng, paths, trans)
	ring := make([]*dmc.Network, n)
	net := base
	for i := range ring {
		net = experiments.DriftNetwork(rng, net, 0.1)
		ring[i] = net
	}
	return base, ring
}

// BenchmarkWarmResolve measures the incremental re-solve engine on a
// drift trajectory against cold solves of the identical instances, per
// dispatch regime: dense (3×2, the serving sweep's shape, and 10×3),
// and column generation just past the dense threshold (15×3) and at the
// 2.8M-combination ROADMAP target (40×4). The warm/cold per-op ratio at
// each size is the headline artifact; both sides are gated as critical
// in scripts/benchcmp.
func BenchmarkWarmResolve(b *testing.B) {
	for _, size := range []struct{ paths, trans int }{
		{3, 2},  // 16 combos: dense re-solve of the serving sweep's shape
		{10, 3}, // 1331 combos: dense warm re-solve
		{15, 3}, // 4096: column generation just past the dense threshold
		{40, 4}, // 2.8M: column generation with persistent pool
	} {
		base, ring := warmResolveRing(size.paths, size.trans, 32)
		warmCounts := replayCounts(len(ring), func(w *workCounts) error {
			solver := dmc.NewSolver()
			if _, err := solver.Resolve(base); err != nil {
				return err
			}
			for _, n := range ring {
				sol, err := solver.Resolve(n)
				if err != nil {
					return err
				}
				w.add(sol.Stats)
			}
			return nil
		})
		coldCounts := replayCounts(len(ring), func(w *workCounts) error {
			for _, n := range ring {
				sol, err := dmc.SolveQuality(n)
				if err != nil {
					return err
				}
				w.add(sol.Stats)
			}
			return nil
		})
		b.Run(fmt.Sprintf("paths=%d/trans=%d/warm", size.paths, size.trans), func(b *testing.B) {
			solver := dmc.NewSolver()
			if _, err := solver.Resolve(base); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.Resolve(ring[i%len(ring)]); err != nil {
					b.Fatal(err)
				}
			}
			warmCounts(b)
		})
		b.Run(fmt.Sprintf("paths=%d/trans=%d/cold", size.paths, size.trans), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dmc.SolveQuality(ring[i%len(ring)]); err != nil {
					b.Fatal(err)
				}
			}
			coldCounts(b)
		})
	}
}

// BenchmarkSessionFootprint measures what an idle warm session holds,
// the memory a daemon keeps per served session: each op primes 16
// Solvers (256 at 3×2), each on the first round of its own 8-round
// drift ring, and re-solves each 16 rounds in ping-pong order (0, 1,
// …, 7, 6, …), the order dmcbench's sessions drift in; the reported
// kB/session is the live heap the Solvers hold, read after runtime.GC
// with their Solutions dropped. Shapes: fleet-cg's 40×4 quality and min-cost
// sessions (floors at 90% of the ring's lowest quality optimum) and
// sweep-tiny's dense 3×2. Its ns/op is a whole fleet's solves, and it
// stays out of scripts/benchcmp's -critical set.
func BenchmarkSessionFootprint(b *testing.B) {
	for _, tc := range []struct {
		name                   string
		paths, trans, sessions int
		minCost                bool
	}{
		{"quality/paths=40/trans=4", 40, 4, 16, false},
		{"mincost/paths=40/trans=4", 40, 4, 16, true},
		{"quality/paths=3/trans=2", 3, 2, 256, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const rounds, resolves = 8, 16
			rings := make([][]*core.Network, tc.sessions)
			floors := make([]float64, tc.sessions)
			for s := range rings {
				rng := rand.New(rand.NewPCG(uint64(s)+1, uint64(tc.paths)))
				rings[s] = []*core.Network{experiments.RandomNetwork(rng, tc.paths, tc.trans)}
				for len(rings[s]) < rounds {
					rings[s] = append(rings[s], experiments.DriftNetwork(rng, rings[s][len(rings[s])-1], 0.1))
				}
				floors[s] = 1
				if tc.minCost {
					for _, n := range rings[s] {
						opt, err := core.SolveQuality(n)
						if err != nil {
							b.Fatal(err)
						}
						floors[s] = min(floors[s], 0.9*opt.Quality)
					}
				}
			}
			liveHeap := func() float64 {
				runtime.GC()
				runtime.GC() // frees what sync.Pool's victim cache held
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return float64(ms.HeapAlloc)
			}
			var perSession float64
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				solvers := make([]*core.Solver, tc.sessions)
				before := liveHeap()
				b.StartTimer()
				for s := range solvers {
					sv := core.NewSolver()
					for k := range resolves + 1 {
						// Ping-pong over the ring: 0, 1, …, 7, 6, …, 1, 0, 1, …
						r := k % (2 * (rounds - 1))
						if r >= rounds {
							r = 2*(rounds-1) - r
						}
						var err error
						if tc.minCost {
							_, err = sv.ResolveMinCost(rings[s][r], floors[s])
						} else {
							_, err = sv.Resolve(rings[s][r])
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					solvers[s] = sv
				}
				b.StopTimer()
				perSession = (liveHeap() - before) / float64(tc.sessions)
				runtime.KeepAlive(solvers)
				b.StartTimer()
			}
			runtime.KeepAlive(rings)
			runtime.KeepAlive(floors)
			b.ReportMetric(perSession/1000, "kB/session")
		})
	}
}

// BenchmarkMinCostCG measures the §VI-A min-cost solve at the ROADMAP's
// CG-scale target (40 paths × 4 transmissions, 2.8M combinations —
// beyond the old dense-only cap): column generation with incremental
// simplex appends, one-shot on a pooled workspace. Gated critical in
// scripts/benchcmp.
func BenchmarkMinCostCG(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 4010))
	n := experiments.RandomNetwork(rng, 40, 4)
	qsol, err := core.SolveQuality(n)
	if err != nil {
		b.Fatal(err)
	}
	floor := qsol.Quality * 0.9
	var work workCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.SolveMinCost(n, floor)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Stats.Dispatch != core.DispatchCG {
			b.Fatalf("dispatch %v", sol.Stats.Dispatch)
		}
		work.add(sol.Stats)
	}
	work.report(b, b.N)
}

// BenchmarkRandomCG measures the §VI-B random-delay solve at a path
// count whose pair space exceeds the dense threshold (120 paths, 14641
// pairs): per-pair Eq. 27–30 tabulation plus exact-scan column
// generation.
func BenchmarkRandomCG(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 1202))
	n := experiments.RandomNetwork(rng, 120, 2)
	to, err := core.DeterministicTimeouts(n, 50*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	var work workCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.SolveQualityRandom(n, to)
		if err != nil {
			b.Fatal(err)
		}
		if sol.Stats.Dispatch != core.DispatchCG {
			b.Fatalf("dispatch %v", sol.Stats.Dispatch)
		}
		work.add(sol.Stats)
	}
	work.report(b, b.N)
}

// solveManyFleet builds a 64-network fleet plus a ring of per-round
// drifted copies — the fleet-wide §VIII-A re-solve storm.
func solveManyFleet(paths, trans, size, rounds int) [][]*dmc.Network {
	rng := rand.New(rand.NewPCG(11, uint64(paths*100+trans)))
	out := make([][]*dmc.Network, rounds)
	out[0] = make([]*dmc.Network, size)
	for i := range out[0] {
		out[0][i] = experiments.RandomNetwork(rng, paths, trans)
	}
	for r := 1; r < rounds; r++ {
		out[r] = make([]*dmc.Network, size)
		for i, n := range out[r-1] {
			out[r][i] = experiments.DriftNetwork(rng, n, 0.1)
		}
	}
	return out
}

// sessionKeys returns one session ID per fleet slot.
func sessionKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sat-%05d", i)
	}
	return keys
}

// newSessions returns one Solver per fleet slot: the library's fleet,
// one warm Solver per session.
func newSessions(n int) []*dmc.Solver {
	svs := make([]*dmc.Solver, n)
	for i := range svs {
		svs[i] = dmc.NewSolver()
	}
	return svs
}

// solveSessions re-solves one fleet round, network i on session i's
// Solver (Resolve), fanned across GOMAXPROCS workers, and counts the
// solves' work into w.
func solveSessions(svs []*dmc.Solver, nets []*dmc.Network, w *workCounts) error {
	return conc.ForEach(len(nets), func(i int) error {
		sol, err := svs[i].Resolve(nets[i])
		if err == nil {
			w.add(sol.Stats)
		}
		return err
	})
}

// solveCold solves every network one-shot with the package-level
// SolveQuality, fanned across GOMAXPROCS workers, and counts the
// solves' work into w.
func solveCold(nets []*dmc.Network, w *workCounts) error {
	return conc.ForEach(len(nets), func(i int) error {
		sol, err := dmc.SolveQuality(nets[i])
		if err == nil {
			w.add(sol.Stats)
		}
		return err
	})
}

// BenchmarkSolveManyWarm measures fleet-scale re-solves of 64 drifting
// 20-path × 4-transmission networks (194k-combination CG dispatch
// each): one warm Solver per network, re-solved as the fleet drifts,
// against one-shot cold solves of the identical fleets. Both fan out
// across GOMAXPROCS workers. The warm/cold per-op ratio is the fleet
// re-solve artifact; ≥5× is the acceptance bar.
func BenchmarkSolveManyWarm(b *testing.B) {
	fleets := solveManyFleet(20, 4, 64, 8)
	warmCounts := replayCounts(len(fleets), func(w *workCounts) error {
		svs := newSessions(len(fleets[0]))
		if err := solveSessions(svs, fleets[0], nil); err != nil {
			return err
		}
		for _, fleet := range fleets {
			if err := solveSessions(svs, fleet, w); err != nil {
				return err
			}
		}
		return nil
	})
	coldCounts := replayCounts(len(fleets), func(w *workCounts) error {
		for _, fleet := range fleets {
			if err := solveCold(fleet, w); err != nil {
				return err
			}
		}
		return nil
	})
	b.Run("warm", func(b *testing.B) {
		svs := newSessions(len(fleets[0]))
		if err := solveSessions(svs, fleets[0], nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := solveSessions(svs, fleets[i%len(fleets)], nil); err != nil {
				b.Fatal(err)
			}
		}
		warmCounts(b)
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := solveCold(fleets[i%len(fleets)], nil); err != nil {
				b.Fatal(err)
			}
		}
		coldCounts(b)
	})
}

// BenchmarkAdaptorPoll runs the §VIII-A estimator poll loop: every
// iteration feeds an observation and polls Solution. Most polls take the
// no-drift fast path (which must not allocate — EstimatedNetwork reuses
// the Adaptor's scratch); the occasional threshold crossing re-solves on
// the Adaptor's incremental warm path.
func BenchmarkAdaptorPoll(b *testing.B) {
	n := experiments.TableIIINetwork(90, 800*time.Millisecond)
	a, err := dmc.NewAdaptor(n)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := a.Solution(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate the loss estimate between ~0% and ~33% so every
		// other poll crosses the drift threshold and re-solves warm.
		a.ObserveSend(0)
		if i%2 == 0 {
			a.ObserveLoss(0)
		}
		if _, _, err := a.Solution(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeoutCache measures the Eq. 34 table lookup under λ-only
// drift (every call after the first hits the cache, which keeps the
// table while the caller holds it).
func BenchmarkTimeoutCache(b *testing.B) {
	n := experiments.TableVNetwork()
	c := dmc.NewTimeoutCache()
	held, err := c.OptimalTimeouts(n, dmc.TimeoutOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drifted := *n
		drifted.Rate *= 1 + float64(i%10)/100
		if _, err := c.OptimalTimeouts(&drifted, dmc.TimeoutOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	runtime.KeepAlive(held)
}

// BenchmarkSolverAblation compares the float simplex against the exact
// rational simplex (the CGAL analogue) on the Table IV instance.
func BenchmarkSolverAblation(b *testing.B) {
	b.Run("float", func(b *testing.B) {
		n := experiments.TableIIINetwork(90, 800*time.Millisecond)
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveQuality(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		n := experiments.ExactTableIVInstance()
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveQualityExact(n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedulerAblation times one packet-assignment decision per
// selector (Algorithm 1 vs baselines).
func BenchmarkSchedulerAblation(b *testing.B) {
	n := experiments.TableIIINetwork(90, 800*time.Millisecond)
	sol, err := core.SolveQuality(n)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("deficit", func(b *testing.B) {
		sel, err := sched.NewDeficit(sol.X)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sel.Select()
		}
	})
	b.Run("weighted-random", func(b *testing.B) {
		sel, err := sched.NewWeightedRandom(sol.X, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sel.Select()
		}
	})
	b.Run("round-robin", func(b *testing.B) {
		sel, err := sched.NewRoundRobin(sol.X, 0)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sel.Select()
		}
	})
}

// BenchmarkSessionExperiment1 runs a full Experiment 1 transport session
// (2000 messages) per iteration.
func BenchmarkSessionExperiment1(b *testing.B) {
	n := experiments.TableIIINetwork(90, 800*time.Millisecond)
	sol, err := core.SolveQuality(n)
	if err != nil {
		b.Fatal(err)
	}
	to, err := experiments.TrueTimeouts()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := dmc.NewSimulator(uint64(i + 1))
		res, err := dmc.RunSession(sim, dmc.SessionConfig{
			Solution:     sol,
			Timeouts:     to,
			TruePaths:    experiments.TrueLinks(),
			MessageCount: 2000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Generated != 2000 {
			b.Fatal("workload wrong")
		}
	}
}

// BenchmarkSimulatorEvents measures raw event throughput of the
// discrete-event engine.
func BenchmarkSimulatorEvents(b *testing.B) {
	b.ReportAllocs()
	sim := netsim.NewSimulator(1)
	fn := func() {}
	for i := 0; i < b.N; i++ {
		sim.Schedule(time.Duration(i%1000)*time.Microsecond, fn)
		if i%1024 == 1023 {
			sim.Run()
		}
	}
	sim.Run()
}

// BenchmarkLinkSend measures packet transfer through a bottleneck link.
func BenchmarkLinkSend(b *testing.B) {
	sim := netsim.NewSimulator(2)
	sink := 0
	link, err := netsim.NewLink(sim, netsim.LinkConfig{
		Name:      "bench",
		Bandwidth: 1e9,
		Delay:     dist.Deterministic{D: time.Millisecond},
		Loss:      0.01,
	}, func(netsim.Packet) { sink++ })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		link.Send(netsim.Packet{Bytes: 1024})
		if i%1024 == 1023 {
			sim.Run()
		}
	}
	sim.Run()
}

// BenchmarkGammaSample measures shifted-gamma variate generation
// (Marsaglia–Tsang).
func BenchmarkGammaSample(b *testing.B) {
	g := dist.ShiftedGamma{Loc: 400 * time.Millisecond, Shape: 10, Scale: 4 * time.Millisecond}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < b.N; i++ {
		_ = g.Sample(rng)
	}
}

// BenchmarkGammaTail measures the upper incomplete gamma continued
// fraction.
func BenchmarkGammaTail(b *testing.B) {
	g := dist.ShiftedGamma{Loc: 400 * time.Millisecond, Shape: 10, Scale: 4 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		_ = g.Tail(500 * time.Millisecond)
	}
}

// BenchmarkSumTail measures one convolution-based tail evaluation of a
// delay sum — the inner loop of Eq. 34 timeout optimization.
func BenchmarkSumTail(b *testing.B) {
	g1 := dist.ShiftedGamma{Loc: 400 * time.Millisecond, Shape: 10, Scale: 4 * time.Millisecond}
	g2 := dist.ShiftedGamma{Loc: 100 * time.Millisecond, Shape: 5, Scale: 2 * time.Millisecond}
	s := dist.NewSumNodes(g1, g2, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Tail(615 * time.Millisecond)
	}
}

// BenchmarkSolveMany measures one-shot solves of a fleet of Figure 4
// sized instances fanned across GOMAXPROCS workers (per-op time covers
// the whole fleet).
func BenchmarkSolveMany(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 27))
	nets := make([]*dmc.Network, 64)
	for i := range nets {
		nets[i] = experiments.RandomNetwork(rng, 6, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solveCold(nets, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPLargeAspect solves the characteristic LP shape of this
// paper: many columns (combinations), few rows (paths + cost +
// conservation).
func BenchmarkLPLargeAspect(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, paths := range []int{5, 10} {
		b.Run(fmt.Sprintf("paths=%d/trans=3", paths), func(b *testing.B) {
			prob, err := experiments.LPBuildOnly(rng, paths, 3)
			if err != nil {
				b.Fatal(err)
			}
			solver := lp.NewSolver()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.Solve(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serveFleetBodies pre-marshals /v1/solve request bodies for a drifting
// fleet: rounds × size wire requests over the same session IDs.
func serveFleetBodies(fleets [][]*dmc.Network) [][][]byte {
	out := make([][][]byte, len(fleets))
	keys := sessionKeys(len(fleets[0]))
	for r, fleet := range fleets {
		out[r] = make([][]byte, len(fleet))
		for i, n := range fleet {
			buf, err := json.Marshal(scenario.SolveRequest{
				Solve:     scenario.Solve{Network: scenario.FromNetwork(n)},
				SessionID: keys[i],
			})
			if err != nil {
				panic(err)
			}
			out[r][i] = buf
		}
	}
	return out
}

// serveClient keeps enough idle connections for a saturating client
// fleet — http.DefaultTransport caps idle conns per host at 2, which
// would put a TCP handshake on nearly every request.
var serveClient = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 256,
}}

// serveSweep posts one whole fleet round to the daemon from bounded
// concurrent clients, failing on any non-200 (a 429 means admission
// dropped a session).
func serveSweep(url string, bodies [][]byte) error {
	workers := 64
	if len(bodies) < workers {
		workers = len(bodies)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bodies); i += workers {
				resp, err := serveClient.Post(url, "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errs[w] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[w] = fmt.Errorf("session %d: status %d (a 429 means admission dropped a session)", i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// BenchmarkServeSaturation measures the daemon under fleet re-solve
// sweeps (one whole drifting fleet round per op) against the same
// sweeps on the library directly (one warm Solver per network, fanned
// across GOMAXPROCS workers), in two regimes. sessions=64
// is CG-scale (20 paths × 4 transmissions per session): per-solve work
// dominates, and the daemon/library per-op ratio is the serving tax —
// HTTP, admission queueing, and session registry on top of identical
// warm solves; within 2× is the acceptance bar. sessions=10240 is the
// admission sweep (tiny dense solves, transport-bound): its artifact is
// that backpressure never drops a session — any 429 fails the
// benchmark. Gated critical in scripts/benchcmp.
func BenchmarkServeSaturation(b *testing.B) {
	for _, size := range []struct{ sessions, paths, trans, rounds int }{
		{64, 20, 4, 8},
		{10240, 3, 2, 4},
	} {
		fleets := solveManyFleet(size.paths, size.trans, size.sessions, size.rounds)

		b.Run(fmt.Sprintf("sessions=%d/library", size.sessions), func(b *testing.B) {
			svs := newSessions(size.sessions)
			if err := solveSessions(svs, fleets[0], nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := solveSessions(svs, fleets[i%len(fleets)], nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size.sessions)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
		})

		b.Run(fmt.Sprintf("sessions=%d/daemon", size.sessions), func(b *testing.B) {
			bodies := serveFleetBodies(fleets)
			srv, err := dmc.NewServer(dmc.ServeConfig{})
			if err != nil {
				b.Fatalf("NewServer: %v", err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			url := ts.URL + "/v1/solve"

			if err := serveSweep(url, bodies[0]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := serveSweep(url, bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(size.sessions)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
			m := srv.Metrics()
			var p99, rejected float64
			for _, sm := range m.Shards {
				if sm.P99Ms > p99 {
					p99 = sm.P99Ms
				}
				rejected += float64(sm.Rejected)
			}
			b.ReportMetric(p99, "p99_ms")
			if rejected > 0 {
				b.Fatalf("%v sessions rejected by admission control", rejected)
			}
			if n := srv.Sessions(); n != size.sessions {
				b.Fatalf("daemon tracks %d sessions, want %d", n, size.sessions)
			}
		})
	}
}
