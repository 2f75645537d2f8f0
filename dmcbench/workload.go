package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"time"

	"dmc/internal/conc"
	"dmc/internal/core"
	"dmc/internal/experiments"
	"dmc/internal/scenario"
)

// Workload names (the -workload flag).
const (
	wlFleetCG        = "fleet-cg"
	wlSweepTiny      = "sweep-tiny"
	wlObserveDurable = "observe-durable"
)

// shape sizes one workload.
type shape struct {
	sessions int
	paths    int
	trans    int
	// rounds is the number of pre-generated drift rounds per session
	// (solve workloads); observations is the number of pre-generated
	// /v1/observe bodies per session (observe-durable).
	rounds       int
	observations int
	// minCostOdd makes odd sessions use the min-cost objective.
	minCostOdd bool
	observe    bool
	// samples is how many (session, round) answers the correctness check
	// re-solves cold after the timed window.
	samples int
	// setups is how many times a run sets the daemon up; setup_s is their
	// median. Cheap set-ups repeat more, since their median is noisier.
	setups int
	// warmup, when set, replaces the default untimed stretch before the
	// timed window.
	warmup time.Duration
	// snapshotBytes, when set, is passed to dmcd as -snapshot-bytes; zero
	// keeps the daemon's default.
	snapshotBytes int
}

func shapeOf(name string, smoke bool) (shape, error) {
	var sh shape
	switch name {
	case wlFleetCG:
		sh = shape{sessions: 128, paths: 40, trans: 4, rounds: 8, minCostOdd: true, samples: 32, setups: 3}
		if smoke {
			sh.sessions, sh.rounds, sh.samples, sh.setups = 4, 3, 4, 1
		}
	case wlSweepTiny:
		sh = shape{sessions: 4096, paths: 3, trans: 2, rounds: 4, samples: 256, setups: 3}
		if smoke {
			sh.sessions, sh.samples, sh.setups = 64, 16, 1
		}
	case wlObserveDurable:
		// The run writes about 600 journal bytes per request; the long
		// warm-up makes even a slow run write well past dmcd's default 4MB
		// compaction threshold, which the durability check requires.
		sh = shape{sessions: 256, paths: 4, trans: 2, rounds: 1, observations: 16, observe: true, setups: 11, warmup: 5 * time.Second}
		if smoke {
			sh.sessions, sh.observations, sh.setups, sh.warmup = 16, 4, 1, 0
			sh.snapshotBytes = 32 << 10
		}
	default:
		return shape{}, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlFleetCG, wlSweepTiny, wlObserveDurable)
	}
	return sh, nil
}

// session is one generated session: its wire requests, pre-marshalled,
// and the networks the server derives from them.
type session struct {
	id      string
	minCost bool
	// floor is the min-cost quality floor, fixed at generation.
	floor float64
	// bodies[r] is the /v1/solve body of drift round r (observe-durable:
	// one estimator bind body); nets[r] is the network the server decodes
	// from it.
	bodies [][]byte
	nets   []*core.Network
	// obs[k] is the k-th /v1/observe body (observe-durable), obsReq[k]
	// its decoded form.
	obs    [][]byte
	obsReq []scenario.ObserveRequest
}

// workload is a seeded, fully generated input set.
type workload struct {
	name     string
	seed     uint64
	shape    shape
	sessions []*session
}

// solveEndpoint and observeEndpoint are the two request targets.
const (
	solveEndpoint   = "/v1/solve"
	observeEndpoint = "/v1/observe"
)

// generate builds the workload from the seed alone. Every session draws
// from its own stream, so generation is parallel and still deterministic.
func generate(name string, seed uint64, smoke bool) (*workload, error) {
	sh, err := shapeOf(name, smoke)
	if err != nil {
		return nil, err
	}
	w := &workload{name: name, seed: seed, shape: sh, sessions: make([]*session, sh.sessions)}
	salt := uint64(0)
	for _, c := range name {
		salt = salt*131 + uint64(c)
	}
	err = conc.ForEach(sh.sessions, func(i int) error {
		rng := rand.New(rand.NewPCG(seed, salt^uint64(i)*0x9e3779b97f4a7c15))
		se, err := genSession(rng, sh, i)
		w.sessions[i] = se
		return err
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

func genSession(rng *rand.Rand, sh shape, i int) (*session, error) {
	se := &session{id: "s" + strconv.Itoa(i), minCost: sh.minCostOdd && i%2 == 1}
	net := experiments.RandomNetwork(rng, sh.paths, sh.trans)
	for r := 0; r < sh.rounds; r++ {
		if r > 0 {
			net = experiments.DriftNetwork(rng, net, 0.1)
		}
		wire := scenario.FromNetwork(net)
		// The server solves what it decodes, so the generator keeps the
		// decoded network, not the pre-wire one, as its reference.
		dec, err := wire.ToNetwork()
		if err != nil {
			return nil, fmt.Errorf("session %s round %d: %w", se.id, r, err)
		}
		se.nets = append(se.nets, dec)
	}
	if se.minCost {
		floor, err := feasibleFloor(se.nets)
		if err != nil {
			return nil, fmt.Errorf("session %s: %w", se.id, err)
		}
		se.floor = floor
	}
	for _, n := range se.nets {
		req := scenario.SolveRequest{Solve: scenario.Solve{Network: scenario.FromNetwork(n)}, SessionID: se.id}
		switch {
		case sh.observe:
			req.Estimator = true
		case se.minCost:
			req.Objective = scenario.ObjectiveMinCost
			req.MinQuality = se.floor
		default:
			req.Objective = scenario.ObjectiveQuality
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		se.bodies = append(se.bodies, b)
	}
	for k := 0; k < sh.observations; k++ {
		or := observation(rng, se.id, se.nets[0])
		b, err := json.Marshal(or)
		if err != nil {
			return nil, err
		}
		se.obs = append(se.obs, b)
		se.obsReq = append(se.obsReq, or)
	}
	return se, nil
}

// feasibleFloor fixes a min-cost session's quality floor at 90% of the
// lowest quality optimum over all of its drift rounds. Min-cost drops the
// cost-budget row that bounds the quality optimum, so a floor below every
// round's Q* is attainable in every round: no drift round can answer 422.
func feasibleFloor(nets []*core.Network) (float64, error) {
	sv := core.NewSolver()
	lowest := 1.0
	for r, n := range nets {
		sol, err := sv.Resolve(n)
		if err != nil {
			return 0, fmt.Errorf("quality optimum of round %d: %w", r, err)
		}
		lowest = min(lowest, sol.Quality)
	}
	if lowest <= 0 {
		return 0, fmt.Errorf("quality optimum %v leaves no feasible floor", lowest)
	}
	return 0.9 * lowest, nil
}

// observation draws one /v1/observe report near the bound network's own
// parameters: per-path losses around the path's loss rate and RTT
// samples around dᵢ + d_min, so after the first few reports most polls
// stay inside the estimator's drift tolerance and skip the solver.
func observation(rng *rand.Rand, id string, n *core.Network) scenario.ObserveRequest {
	ack := n.Paths[n.AckPathIndex()].Delay
	req := scenario.ObserveRequest{SessionID: id}
	for i, p := range n.Paths {
		sent := 200 + rng.IntN(200)
		lost := int(float64(sent)*p.Loss*(0.9+0.2*rng.Float64()) + 0.5)
		lost = min(lost, sent)
		rtt := float64(p.Delay+ack) / float64(time.Millisecond)
		req.Paths = append(req.Paths, scenario.PathObservation{
			Path:  i,
			Sent:  sent,
			Lost:  lost,
			RTTMs: []float64{rtt * (0.97 + 0.06*rng.Float64()), rtt * (0.97 + 0.06*rng.Float64())},
		})
	}
	return req
}

// pingpong maps step k ≥ 0 onto rounds 0,1,…,R−1,R−2,…,1,0,1,… so that
// consecutive requests of one session are always one drift step apart.
func pingpong(k, rounds int) int {
	if rounds <= 1 {
		return 0
	}
	period := 2 * (rounds - 1)
	k %= period
	if k < rounds {
		return k
	}
	return period - k
}

// workers is the closed loop's connection count: one per CPU.
func workers() int { return max(1, runtime.NumCPU()) }
