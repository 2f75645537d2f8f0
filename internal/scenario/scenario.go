// Package scenario defines the JSON schema shared by the CLI tools
// (cmd/mpopt, cmd/mpsim) and the solver daemon (cmd/dmcd): network
// descriptions, solve objectives and their wire requests/responses, and
// simulation workloads, with conversions to the core model types.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"dmc/internal/core"
	"dmc/internal/dist"
	"dmc/internal/netsim"
	"dmc/internal/proto"
)

// Gamma is a shifted-gamma delay specification (Eq. 31).
type Gamma struct {
	LocMs   float64 `json:"loc_ms"`
	Shape   float64 `json:"shape"`
	ScaleMs float64 `json:"scale_ms"`
}

// Path describes one path in JSON.
type Path struct {
	Name          string  `json:"name,omitempty"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	DelayMs       float64 `json:"delay_ms,omitempty"`
	Loss          float64 `json:"loss,omitempty"`
	Cost          float64 `json:"cost,omitempty"`
	// DelayGamma, when present, overrides DelayMs with a distribution.
	DelayGamma *Gamma `json:"delay_gamma,omitempty"`
}

// Network describes a scenario in JSON.
type Network struct {
	RateMbps   float64 `json:"rate_mbps"`
	LifetimeMs float64 `json:"lifetime_ms"`
	// CostBound is µ per second; omitted means unlimited.
	CostBound     *float64 `json:"cost_bound,omitempty"`
	Transmissions int      `json:"transmissions,omitempty"`
	Paths         []Path   `json:"paths"`
}

// ToNetwork converts to the model type.
func (n Network) ToNetwork() (*core.Network, error) {
	out := core.NewNetwork(n.RateMbps*core.Mbps, msToDur(n.LifetimeMs))
	if n.CostBound != nil {
		out.CostBound = *n.CostBound
	}
	out.Transmissions = n.Transmissions
	out.Paths = make([]core.Path, 0, len(n.Paths))
	for _, p := range n.Paths {
		cp := core.Path{
			Name:      p.Name,
			Bandwidth: p.BandwidthMbps * core.Mbps,
			Delay:     msToDur(p.DelayMs),
			Loss:      p.Loss,
			Cost:      p.Cost,
		}
		if g := p.DelayGamma; g != nil {
			if g.Shape <= 0 || g.ScaleMs <= 0 {
				return nil, fmt.Errorf("scenario: path %q gamma needs positive shape and scale", p.Name)
			}
			cp.RandDelay = dist.ShiftedGamma{
				Loc:   msToDur(g.LocMs),
				Shape: g.Shape,
				Scale: msToDur(g.ScaleMs),
			}
			cp.Delay = cp.RandDelay.Mean()
		}
		out.Paths = append(out.Paths, cp)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// FromNetwork converts a model network back to its JSON form.
func FromNetwork(n *core.Network) Network {
	out := Network{
		RateMbps:      n.Rate / core.Mbps,
		LifetimeMs:    durToMs(n.Lifetime),
		Transmissions: n.Transmissions,
	}
	if !math.IsInf(n.CostBound, 1) {
		cb := n.CostBound
		out.CostBound = &cb
	}
	for _, p := range n.Paths {
		jp := Path{
			Name:          p.Name,
			BandwidthMbps: p.Bandwidth / core.Mbps,
			DelayMs:       durToMs(p.Delay),
			Loss:          p.Loss,
			Cost:          p.Cost,
		}
		if g, ok := p.RandDelay.(dist.ShiftedGamma); ok {
			jp.DelayGamma = &Gamma{LocMs: durToMs(g.Loc), Shape: g.Shape, ScaleMs: durToMs(g.Scale)}
		}
		out.Paths = append(out.Paths, jp)
	}
	return out
}

// Solve objective selector values.
const (
	ObjectiveQuality = "quality"
	ObjectiveMinCost = "mincost"
	ObjectiveRandom  = "random"
)

// TimeoutSpec tunes the Eq. 34 timeout search of the random-delay
// objective. Zero fields select the core defaults.
type TimeoutSpec struct {
	// GridStepMs is the coarse search resolution over (0, δ].
	GridStepMs float64 `json:"grid_step_ms,omitempty"`
	// RefineLevels is how many 10× grid refinements follow the coarse
	// pass.
	RefineLevels int `json:"refine_levels,omitempty"`
	// ConvolutionNodes is the quadrature resolution for P(dᵢ+d_min ≤ t).
	ConvolutionNodes int `json:"convolution_nodes,omitempty"`
}

// Options converts to the core search options.
func (t TimeoutSpec) Options() core.TimeoutOptions {
	return core.TimeoutOptions{
		GridStep:         msToDur(t.GridStepMs),
		RefineLevels:     t.RefineLevels,
		ConvolutionNodes: t.ConvolutionNodes,
	}
}

// Solve describes one optimization request (cmd/mpopt, and the body of
// cmd/dmcd's /v1/solve inside a SolveRequest).
type Solve struct {
	Network Network `json:"network"`
	// Objective is "quality" (default), "mincost", or "random" (random-
	// delay model with optimized timeouts).
	Objective string `json:"objective,omitempty"`
	// MinQuality is the quality floor of the mincost objective.
	MinQuality float64 `json:"min_quality,omitempty"`
	// Timeout tunes the random objective's Eq. 34 timeout search.
	Timeout *TimeoutSpec `json:"timeout,omitempty"`
}

// ObjectiveKind normalizes the objective selector ("" means quality)
// and rejects unknown values.
func (s Solve) ObjectiveKind() (string, error) {
	switch s.Objective {
	case "", ObjectiveQuality:
		return ObjectiveQuality, nil
	case ObjectiveMinCost, ObjectiveRandom:
		return s.Objective, nil
	default:
		return "", fmt.Errorf("scenario: unknown objective %q", s.Objective)
	}
}

// Validate checks the request fields that the network conversion does
// not cover: the objective selector, the quality floor's range, and the
// timeout search options.
func (s Solve) Validate() error {
	if _, err := s.ObjectiveKind(); err != nil {
		return err
	}
	if math.IsNaN(s.MinQuality) || s.MinQuality < 0 || s.MinQuality > 1 {
		return fmt.Errorf("scenario: min_quality %v outside [0,1]", s.MinQuality)
	}
	if t := s.Timeout; t != nil {
		if math.IsNaN(t.GridStepMs) || math.IsInf(t.GridStepMs, 0) || t.GridStepMs < 0 {
			return fmt.Errorf("scenario: timeout grid_step_ms %v must be a finite non-negative number", t.GridStepMs)
		}
		if t.RefineLevels < 0 {
			return fmt.Errorf("scenario: timeout refine_levels %d must be non-negative", t.RefineLevels)
		}
		if t.ConvolutionNodes < 0 {
			return fmt.Errorf("scenario: timeout convolution_nodes %d must be non-negative", t.ConvolutionNodes)
		}
	}
	return nil
}

// SolveRequest is the cmd/dmcd /v1/solve wire request: a Solve plus
// session routing. A SessionID pins the request to a session-keyed warm
// solver (basis affinity across re-solves); without one the solve is
// stateless. Estimator additionally attaches a §VIII-A estimator feed
// (quality objective only) that /v1/observe observations drive.
type SolveRequest struct {
	Solve
	SessionID string `json:"session_id,omitempty"`
	Estimator bool   `json:"estimator,omitempty"`
	// BudgetMs is the client's deadline budget for this request in
	// milliseconds: a solve still queued when the budget expires is shed
	// with 504 instead of burning solver capacity on an answer the
	// client can no longer use. Zero (or absent) means the server's
	// maximum budget applies; the server caps explicit budgets at that
	// maximum too.
	BudgetMs float64 `json:"budget_ms,omitempty"`
}

// Validate extends Solve.Validate with the request-level fields.
func (r SolveRequest) Validate() error {
	if err := r.Solve.Validate(); err != nil {
		return err
	}
	if math.IsNaN(r.BudgetMs) || math.IsInf(r.BudgetMs, 0) || r.BudgetMs < 0 {
		return fmt.Errorf("scenario: budget_ms %v must be a finite non-negative number", r.BudgetMs)
	}
	return nil
}

// Share is one path combination's traffic share on the wire.
type Share struct {
	// Combo is the path combination in model indexing (0 = blackhole,
	// k = Paths[k-1]); the first entry is the initial transmission.
	Combo []int `json:"combo"`
	// Fraction is the share of application traffic assigned to it.
	Fraction float64 `json:"fraction"`
	// DeliveryProb is p_l, its in-time delivery probability.
	DeliveryProb float64 `json:"delivery_prob"`
}

// SolveResult is a solved strategy on the wire. It copies everything it
// reports out of the core Solution, so it stays valid after the warm
// solver that produced the Solution moves on.
type SolveResult struct {
	// Quality is the delivered-in-time fraction Q (Eq. 10).
	Quality float64 `json:"quality"`
	// CostPerSecond is the expected total cost per second (Eq. 21).
	CostPerSecond float64 `json:"cost_per_second,omitempty"`
	// Shares lists the combinations carrying at least 1e-9 of the
	// traffic, sorted by decreasing share.
	Shares []Share `json:"shares"`
	// PathRatesMbps is the expected sent rate per path (Eq. 2).
	PathRatesMbps []float64 `json:"path_rates_mbps"`
	// DropRateMbps is the traffic assigned to the blackhole.
	DropRateMbps float64 `json:"drop_rate_mbps,omitempty"`
	// TimeoutsMs is the t_{i,j} table used by the random objective
	// (negative = undefined pair); nil for the deterministic objectives.
	TimeoutsMs [][]float64 `json:"timeouts_ms,omitempty"`
	// Dispatch names the solve core that ran (dense, cg).
	Dispatch string `json:"dispatch,omitempty"`
	// Warm reports the solve ran incrementally from session warm state.
	Warm bool `json:"warm,omitempty"`
}

// NewSolveResult extracts a wire result from a solved strategy. to is
// the random objective's timeout table (nil otherwise).
func NewSolveResult(sol *core.Solution, to *core.Timeouts) SolveResult {
	active := sol.ActiveCombos(1e-9)
	out := SolveResult{
		Quality:       sol.Quality,
		Shares:        make([]Share, len(active)),
		PathRatesMbps: sol.SentRates(nil),
		Dispatch:      string(sol.Stats.Dispatch),
		Warm:          sol.Stats.Warm,
	}
	// Every share's combination has one entry per transmission: copy
	// them all into one backing array.
	var combos []int
	if len(active) > 0 {
		combos = make([]int, 0, len(active)*len(active[0].Combo))
	}
	for i, cs := range active {
		start := len(combos)
		combos = append(combos, cs.Combo...)
		out.Shares[i] = Share{
			Combo:        slices.Clip(combos[start:]),
			Fraction:     cs.Fraction,
			DeliveryProb: cs.DeliveryProb,
		}
	}
	for i := range out.PathRatesMbps {
		out.PathRatesMbps[i] /= core.Mbps
	}
	if drop := sol.DropRate(); drop > 0 {
		out.DropRateMbps = drop / core.Mbps
	}
	if c := sol.Cost(); c > 0 {
		out.CostPerSecond = c
	}
	if to != nil {
		out.TimeoutsMs = make([][]float64, len(to.T))
		for i, row := range to.T {
			out.TimeoutsMs[i] = make([]float64, len(row))
			for j, d := range row {
				if d < 0 {
					out.TimeoutsMs[i][j] = -1
				} else {
					out.TimeoutsMs[i][j] = durToMs(d)
				}
			}
		}
	}
	return out
}

// SolveResponse is the cmd/dmcd wire response for /v1/solve and
// /v1/observe.
type SolveResponse struct {
	SessionID string `json:"session_id,omitempty"`
	// Resolved reports whether this request ran a solve: always true for
	// /v1/solve, and only on estimator drift for /v1/observe.
	Resolved bool `json:"resolved"`
	// Result is the current strategy (nil from /v1/observe before the
	// first solve).
	Result *SolveResult `json:"result,omitempty"`
	// Degraded marks a stale answer: the session's shard breaker was
	// open and the server replied with the session's last good strategy
	// instead of solving. Degraded responses are never Resolved.
	Degraded bool `json:"degraded,omitempty"`
}

// PathObservation carries one path's §VIII-A measurements for a session
// estimator feed.
type PathObservation struct {
	// Path is the 0-based index into the session network's paths.
	Path int `json:"path"`
	// Sent and Lost are transmission/loss counts since the last report.
	Sent int `json:"sent,omitempty"`
	Lost int `json:"lost,omitempty"`
	// RTTMs lists acknowledged round-trip samples in milliseconds.
	RTTMs []float64 `json:"rtt_ms,omitempty"`
}

// ObserveRequest is the cmd/dmcd /v1/observe wire request: measurements
// feeding a session's estimator, which re-solves (warm) when the
// estimates drift beyond the adaptor's tolerance.
type ObserveRequest struct {
	SessionID string            `json:"session_id"`
	Paths     []PathObservation `json:"paths"`
}

// ErrorResponse is the JSON error body every cmd/dmcd endpoint returns
// on failure.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Simulation describes a cmd/mpsim request: a model (what the sender
// believes) and optionally different ground truth.
type Simulation struct {
	Model Network `json:"model"`
	// True overrides the actual network; nil means the model is accurate.
	True *Network `json:"true,omitempty"`
	// Messages, MessageBytes, AckBytes default to the paper's workload.
	Messages     int    `json:"messages,omitempty"`
	MessageBytes int    `json:"message_bytes,omitempty"`
	AckBytes     int    `json:"ack_bytes,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	// TimeoutMarginMs pads deterministic timeouts (default 100 ms, §VII).
	TimeoutMarginMs    *float64 `json:"timeout_margin_ms,omitempty"`
	QueueLimit         int      `json:"queue_limit,omitempty"`
	FastRetransmitDups int      `json:"fast_retransmit_dups,omitempty"`
	AckWindow          int      `json:"ack_window,omitempty"`
}

// Load parses a JSON document into dst, rejecting unknown fields. For a
// *SolveRequest it first reads r to EOF, up to 64 KB, and parses that by
// hand (see wire.go), with the same results as encoding/json.
func Load(r io.Reader, dst any) error {
	if req, ok := dst.(*SolveRequest); ok {
		return loadSolveRequest(r, req)
	}
	return decodeJSON(r, dst)
}

// decodeJSON is Load by encoding/json.
func decodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("scenario: parsing JSON: %w", err)
	}
	return nil
}

// Run executes the simulation: solve on the model, run on the truth.
func (s Simulation) Run() (*proto.Result, *core.Solution, error) {
	model, err := s.Model.ToNetwork()
	if err != nil {
		return nil, nil, err
	}
	truth := model
	if s.True != nil {
		truth, err = s.True.ToNetwork()
		if err != nil {
			return nil, nil, err
		}
		if len(truth.Paths) != len(model.Paths) {
			return nil, nil, errors.New("scenario: true network must have the same path count as the model")
		}
	}

	usesRandom := false
	for _, p := range model.Paths {
		if p.RandDelay != nil {
			usesRandom = true
		}
	}

	var sol *core.Solution
	var to *core.Timeouts
	if usesRandom {
		to, err = core.OptimalTimeouts(model, core.TimeoutOptions{})
		if err != nil {
			return nil, nil, err
		}
		sol, err = core.SolveQualityRandom(model, to)
	} else {
		margin := 100 * time.Millisecond
		if s.TimeoutMarginMs != nil {
			margin = msToDur(*s.TimeoutMarginMs)
		}
		to, err = core.DeterministicTimeouts(truth, margin)
		if err != nil {
			return nil, nil, err
		}
		sol, err = core.SolveQuality(model)
	}
	if err != nil {
		return nil, nil, err
	}

	sim := netsim.NewSimulator(s.Seed)
	res, err := proto.Run(sim, proto.Config{
		Solution:           sol,
		Timeouts:           to,
		TruePaths:          proto.LinksFromNetwork(truth, s.QueueLimit),
		MessageCount:       s.Messages,
		MessageBytes:       s.MessageBytes,
		AckBytes:           s.AckBytes,
		FastRetransmitDups: s.FastRetransmitDups,
		AckWindow:          s.AckWindow,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, sol, nil
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

func durToMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
