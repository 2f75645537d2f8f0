// Package dmc is the public API of the deadline-aware multipath
// communication library, a from-scratch Go reproduction of
//
//	Chuat, Perrig, Hu — "Deadline-Aware Multipath Communication:
//	An Optimization Problem", IEEE/IFIP DSN 2017.
//
// The library answers one question: given several end-to-end paths with
// different bandwidth, delay, loss, and cost, what fraction of a
// constant-rate data stream should be transmitted — and, after a loss,
// retransmitted — on each path so that as much data as possible arrives
// before its deadline?
//
// # Quick start
//
//	net := dmc.NewNetwork(10*dmc.Mbps, time.Second,
//		dmc.Path{Name: "lte", Bandwidth: 10 * dmc.Mbps, Delay: 600 * time.Millisecond, Loss: 0.10},
//		dmc.Path{Name: "wifi", Bandwidth: 1 * dmc.Mbps, Delay: 200 * time.Millisecond, Loss: 0},
//	)
//	sol, err := dmc.SolveQuality(net)
//	// sol.Quality == 1: everything arrives in time by sending on lte and
//	// retransmitting losses on wifi. sol.Fraction(dmc.Combo{1, 2}) == 1.
//
// # Layers
//
// Solving: SolveQuality (maximize delivered-in-time fraction, Eq. 10),
// SolveMinCost (§VI-A cost minimization under a quality floor), and
// SolveQualityRandom + OptimalTimeouts (§VI-B random delays, Eq. 26–34,
// with NewTimeoutCache memoizing tables across λ/µ/loss drift) run on
// one solve engine that dispatches by combination count: dense
// enumeration up to 2,048 combinations, column generation above it —
// including spaces dense enumeration could never materialize. Either
// way the master is built as a column-sparse LP and solved by one
// revised simplex.
// Solver.Resolve, Solver.ResolveMinCost, and Solver.ResolveQualityRandom
// re-solve incrementally on the same engine for drifting estimates. A
// dense re-solve rebuilds its column table in place and solves its
// master cold, so it equals a cold solve bit for bit; a
// column-generation re-solve reprices its retained pool, reuses the LP
// basis and appends newly priced columns to the sparse master in place.
// A fleet of sessions re-solving as their estimates drift holds one such
// warm Solver per session, as the sessions behind NewServer do.
// SolveQualityExact solves with exact rational arithmetic, as the
// paper's CGAL setup.
//
// Scheduling: NewDeficit implements the paper's Algorithm 1, mapping the
// solved split to per-packet decisions.
//
// Simulation: NewSimulator/NewLink provide the discrete-event network
// substrate, and NewSession runs the full deadline-aware transport
// (retransmission timers, blackhole drops, acknowledgments, fast
// retransmit, vector acks) against it.
//
// Estimation: NewAdaptor maintains live loss/delay estimates (§VIII-A)
// and re-solves when they drift.
//
// Serving: NewServer runs the online solver service behind cmd/dmcd —
// sessions, each holding its own warm Solver, answering session-keyed
// HTTP/JSON solve requests through sharded admission queues, each shard
// running up to GOMAXPROCS requests at once in arrival order, with
// per-session estimator feeds, admission control, and per-shard metrics.
//
// The underlying implementations live in internal/ packages; this package
// re-exports the supported surface via type aliases, so the types here
// are identical to the internal ones.
package dmc

import (
	"math/big"
	"time"

	"dmc/internal/core"
	"dmc/internal/dist"
	"dmc/internal/estimate"
	"dmc/internal/netsim"
	"dmc/internal/proto"
	"dmc/internal/sched"
	"dmc/internal/serve"
)

// Bandwidth units in bits per second.
const (
	Kbps = core.Kbps
	Mbps = core.Mbps
	Gbps = core.Gbps
)

// Model types (Table I / §V).
type (
	// Path is one end-to-end path: bandwidth bᵢ, one-way delay dᵢ,
	// erasure probability τᵢ, per-bit cost cᵢ, optional delay
	// distribution.
	Path = core.Path
	// Network is a scenario: paths plus rate λ, lifetime δ, cost bound µ,
	// and the per-packet transmission budget m.
	Network = core.Network
	// Combo is a path combination (0 = blackhole, k = Paths[k-1]).
	Combo = core.Combo
	// Solution is an optimal sending strategy with its metrics.
	Solution = core.Solution
	// ComboShare pairs a combination with its traffic share.
	ComboShare = core.ComboShare
	// Timeouts is the pairwise retransmission timeout table t_{i,j}.
	Timeouts = core.Timeouts
	// TimeoutOptions tunes OptimalTimeouts' search.
	TimeoutOptions = core.TimeoutOptions
	// Solver is a session's warm state: each of its Resolve methods
	// borrows a pooled workspace for the solve — the master, its
	// simplex, the pricing oracle, the random objective's pair tables
	// and the digit buffer — so an idle Solver holds none of it. The
	// Resolve methods solve incrementally: when only λ/µ/loss/delay
	// drift between calls (the §VIII-A adaptive regime), column tables
	// are rebuilt in place; a dense master is then solved cold, while
	// under column generation the pool is retained and repriced and the
	// previous LP basis warm-starts the simplex — typically ≥5× faster
	// than a cold solve at CG scale, with identical optima. A Resolve
	// result is valid until the next Resolve on the same Solver; the
	// package-level solves return Solutions that own their storage. Not
	// safe for concurrent use: a fleet holds one Solver per session,
	// each re-solved by one goroutine at a time.
	Solver = core.Solver
	// TimeoutCache memoizes OptimalTimeouts tables keyed by the delay
	// inputs alone (delay distributions, lifetime, search options), so
	// re-solves under λ/µ/loss drift reuse the table for free. It holds
	// its tables weakly: a table stays cached while a caller keeps it,
	// as a re-solve loop keeps the table it is using, and leaves at a
	// garbage collection once none does. Safe for concurrent use.
	TimeoutCache = core.TimeoutCache
	// SolveStats records which solve core ran (dense enumeration or
	// column generation) and what it cost.
	SolveStats = core.SolveStats
	// Dispatch names a solve core in SolveStats.
	Dispatch = core.Dispatch
)

// Dispatch values reported in Solution.Stats.
const (
	// DispatchDense is plain dense enumeration of every combination.
	DispatchDense = core.DispatchDense
	// DispatchCG is column generation over a restricted master problem.
	DispatchCG = core.DispatchCG
)

// §IX extensions: load-dependent characteristics and risk adjustment.
type (
	// LoadModel describes how a path reacts to its own utilization
	// (§IX-A).
	LoadModel = core.LoadModel
	// PathLoad reports a converged load-aware operating point.
	PathLoad = core.PathLoad
	// LoadAwareOptions tunes the load-aware fixed-point solve.
	LoadAwareOptions = core.LoadAwareOptions
	// RiskReport holds §IX-C cap-exceedance probabilities.
	RiskReport = core.RiskReport
	// RiskOptions tunes the risk-adjusted solve.
	RiskOptions = core.RiskOptions
)

// Exact (rational-arithmetic) variants, mirroring the paper's CGAL use.
type (
	// ExactPath is a Path over math/big rationals.
	ExactPath = core.ExactPath
	// ExactNetwork is a Network over math/big rationals.
	ExactNetwork = core.ExactNetwork
	// ExactSolution is an exact optimal strategy.
	ExactSolution = core.ExactSolution
	// ExactComboShare pairs a combination with its exact share.
	ExactComboShare = core.ExactComboShare
)

// Delay distributions (§VI-B).
type (
	// Delay models a path's one-way delay distribution.
	Delay = dist.Delay
	// Deterministic is a fixed delay.
	Deterministic = dist.Deterministic
	// ShiftedGamma is the paper's Internet delay model (Eq. 31).
	ShiftedGamma = dist.ShiftedGamma
	// Uniform is a uniform jitter model.
	Uniform = dist.Uniform
)

// Scheduling (Algorithm 1 and baselines).
type (
	// Selector assigns packets to path combinations.
	Selector = sched.Selector
	// Deficit is the paper's Algorithm 1 selector.
	Deficit = sched.Deficit
)

// Simulation substrate and transport.
type (
	// Simulator is the deterministic discrete-event engine.
	Simulator = netsim.Simulator
	// Link is a point-to-point lossy bottleneck link.
	Link = netsim.Link
	// LinkConfig describes a Link.
	LinkConfig = netsim.LinkConfig
	// LinkStats counts link activity.
	LinkStats = netsim.LinkStats
	// Packet is the unit of simulated transfer.
	Packet = netsim.Packet
	// LossModel is the per-packet erasure channel interface.
	LossModel = netsim.LossModel
	// BernoulliLoss is the paper's memoryless erasure channel (§IV).
	BernoulliLoss = netsim.BernoulliLoss
	// GilbertElliott is a two-state burst-loss channel (§IX-B).
	GilbertElliott = netsim.GilbertElliott
	// Session is a full client/server transport run.
	Session = proto.Session
	// SessionConfig configures a Session.
	SessionConfig = proto.Config
	// SessionResult aggregates a finished Session.
	SessionResult = proto.Result
)

// Serving (the cmd/dmcd online solver service).
type (
	// ServeConfig tunes a served solver fleet: shard count, admission
	// queue bound, deadline budgets, circuit breakers, durability and
	// replication, and the estimator feeds' drift tolerance. Each shard
	// has GOMAXPROCS execution slots. The zero value selects production
	// defaults.
	ServeConfig = serve.Config
	// Server is the online solver service: sessions, each holding its
	// own warm Solver, answering session-keyed solve/observe requests
	// over HTTP/JSON through sharded admission queues, with admission
	// control and graceful drain on Close.
	Server = serve.Server
	// ServeMetrics is the /metrics document: uptime, live sessions, and
	// per-shard counters.
	ServeMetrics = serve.Metrics
	// ShardMetrics is one shard's /metrics entry: solves, busy periods
	// (Waves), warm hit rate, rejections, solves/sec, and p50/p99
	// latency.
	ShardMetrics = serve.ShardMetrics
)

// Estimation (§VIII-A).
type (
	// Adaptor tracks live estimates and re-solves on drift.
	Adaptor = estimate.Adaptor
	// LossEstimator counts losses per path.
	LossEstimator = estimate.Loss
	// RTTEstimator is the RFC 6298 smoothed RTT.
	RTTEstimator = estimate.RTT
	// GammaFit fits a ShiftedGamma from delay samples.
	GammaFit = estimate.GammaFit
	// RateMeter measures achieved throughput.
	RateMeter = estimate.RateMeter
)

// NewNetwork returns a Network with rate λ (bits/s), lifetime δ, the
// given paths, an unlimited cost budget, and 2 transmissions per packet.
func NewNetwork(rate float64, lifetime time.Duration, paths ...Path) *Network {
	return core.NewNetwork(rate, lifetime, paths...)
}

// SolveQuality maximizes the communication quality Q (Eq. 10) on a
// pooled workspace. Dispatch scales automatically with the
// combination count (n+1)^m: dense enumeration up to 2,048
// combinations, column generation beyond — pricing columns from the
// simplex duals without materializing the space, so 40 paths at 4
// transmissions solves in tens of milliseconds. Both reach the same
// optimum; Solution.Stats reports which core ran.
func SolveQuality(n *Network) (*Solution, error) { return core.SolveQuality(n) }

// NewSolver returns a Solver for repeated solves of ONE network shape
// under drifting estimates: its Resolve methods are the incremental
// path that reuses columns, and under column generation the pool and
// the LP basis, across solves. The simplex workspace comes from a
// process-wide pool for each solve.
func NewSolver() *Solver { return core.NewSolver() }

// NewTimeoutCache returns an empty OptimalTimeouts cache keyed by the
// delay inputs alone — the Eq. 34 search never reads λ, µ, losses, or
// bandwidths, so adaptive re-solves under rate/budget/loss drift hit the
// cache for free.
func NewTimeoutCache() *TimeoutCache { return core.NewTimeoutCache() }

// SolveMinCost minimizes cost subject to a quality floor (§VI-A) with
// the same dispatch as SolveQuality. Past 2,048 combinations, column
// generation first grows its pool until the floor is provably reachable
// (or certifies ErrInfeasible at the true quality optimum), then prices
// by cost-reduced duals to the certified minimum.
func SolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	return core.SolveMinCost(n, minQuality)
}

// SolveQualityRandom solves the random-delay model (§VI-B) with the given
// retransmission timeouts and the same dispatch as SolveQuality, by pair
// count (n+1)². Both dispatches read the same once-per-solve Eq. 27–30
// pair tables; column generation prices pairs by an exact scan of them.
func SolveQualityRandom(n *Network, to *Timeouts) (*Solution, error) {
	return core.SolveQualityRandom(n, to)
}

// SolveQualityExact solves with exact rational arithmetic.
func SolveQualityExact(n *ExactNetwork) (*ExactSolution, error) {
	return core.SolveQualityExact(n)
}

// SolveMinCostExact solves the §VI-A cost minimization with exact
// rational arithmetic — the differential reference for the float
// min-cost solve paths.
func SolveMinCostExact(n *ExactNetwork, minQuality *big.Rat) (*ExactSolution, error) {
	return core.SolveMinCostExact(n, minQuality)
}

// ExactFromFloat converts a float Network to an exact one.
func ExactFromFloat(n *Network) (*ExactNetwork, error) { return core.ExactFromFloat(n) }

// OptimalTimeouts optimizes t_{i,j} per Eq. 26/34.
func OptimalTimeouts(n *Network, opts TimeoutOptions) (*Timeouts, error) {
	return core.OptimalTimeouts(n, opts)
}

// DeterministicTimeouts returns tᵢ = dᵢ + d_min + margin (Eq. 4).
func DeterministicTimeouts(n *Network, margin time.Duration) (*Timeouts, error) {
	return core.DeterministicTimeouts(n, margin)
}

// QualityUpperBound returns the best quality ignoring bandwidth and cost.
func QualityUpperBound(n *Network) (float64, error) { return core.QualityUpperBound(n) }

// NewDeficit returns the Algorithm 1 selector for a solved split.
func NewDeficit(x []float64) (*Deficit, error) { return sched.NewDeficit(x) }

// NewSimulator returns a deterministic discrete-event simulator.
func NewSimulator(seed uint64) *Simulator { return netsim.NewSimulator(seed) }

// NewLink creates a link inside sim delivering to the callback.
func NewLink(sim *Simulator, cfg LinkConfig, deliver func(Packet)) (*Link, error) {
	return netsim.NewLink(sim, cfg, deliver)
}

// NewSession wires a transport session over sim.
func NewSession(sim *Simulator, cfg SessionConfig) (*Session, error) {
	return proto.NewSession(sim, cfg)
}

// RunSession builds and runs a session in one call.
func RunSession(sim *Simulator, cfg SessionConfig) (*SessionResult, error) {
	return proto.Run(sim, cfg)
}

// LinksFromNetwork derives true link configurations from a network
// description (queueLimit 0 selects a 100-packet drop-tail buffer,
// negative means unlimited).
func LinksFromNetwork(n *Network, queueLimit int) []LinkConfig {
	return proto.LinksFromNetwork(n, queueLimit)
}

// NewAdaptor wraps a base network with live estimators (§VIII-A).
func NewAdaptor(base *Network) (*Adaptor, error) { return estimate.NewAdaptor(base) }

// NewServer starts the online solver service (a warm Solver per
// session, sharded admission queues each with GOMAXPROCS execution slots,
// estimator feeds, admission control, and — with ServeConfig.StateDir
// set — crash-safe session durability). Serve its Handler over HTTP — cmd/dmcd is the ready-made
// binary — and Close it to drain gracefully. The error is non-nil only when a configured
// state dir is unusable or holds records from a newer schema.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// SolveQualityLoadAware solves the §IX-A variant where path delay and
// loss respond to the solution's own traffic (non-linear, fixed-point
// iteration).
func SolveQualityLoadAware(n *Network, models []LoadModel, opts LoadAwareOptions) (*Solution, []PathLoad, error) {
	return core.SolveQualityLoadAware(n, models, opts)
}

// SolveQualityRiskAdjusted shrinks caps and re-solves (§IX-C) until the
// probability of exceeding any bandwidth or cost limit under packetized
// traffic is at most opts.Epsilon.
func SolveQualityRiskAdjusted(n *Network, opts RiskOptions) (*Solution, *RiskReport, error) {
	return core.SolveQualityRiskAdjusted(n, opts)
}

// NewGilbertElliott builds a §IX-B burst-loss channel for LinkConfig.
func NewGilbertElliott(pGoodToBad, pBadToGood, lossGood, lossBad float64) (*GilbertElliott, error) {
	return netsim.NewGilbertElliott(pGoodToBad, pBadToGood, lossGood, lossBad)
}

// ErrInfeasible marks unattainable quality targets in SolveMinCost.
var ErrInfeasible = core.ErrInfeasible

// ErrLoadAwareDiverged marks bistable §IX-A configurations with no
// interior fixed point (use LoadAwareOptions.UtilizationCap).
var ErrLoadAwareDiverged = core.ErrLoadAwareDiverged

// ErrRiskUnattainable marks §IX-C targets the adjustment loop could not
// reach.
var ErrRiskUnattainable = core.ErrRiskUnattainable
