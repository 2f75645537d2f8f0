package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"dmc/internal/conc"
	"dmc/internal/core"
	"dmc/internal/scenario"
)

// Tolerances. A served answer must match the library's warm replay of
// the session to replayTol (JSON round-trips float64 exactly, so any gap
// is a serving fault); the library's warm answer is compared with a cold
// solve to qualityTol and costRelTol.
const (
	replayTol  = 1e-9
	qualityTol = 1e-6
	costRelTol = 1e-6
)

// checker captures a seeded sample of served solve answers during the
// run and checks each afterwards, twice:
//
//   - the daemon must have served exactly what the library's
//     session-keyed warm path (core.WarmPool) computes for the session's
//     history — priming solve, then one drift step per answer — and a
//     min-cost answer must meet its floor; a miss is a failure;
//   - that warm answer is compared with a cold library solve of the same
//     network. A disagreement is the library's warm path diverging from
//     its cold path, not a serving fault; it is reported on every run as
//     a finding and does not count as a failure.
type checker struct {
	w   *workload
	sc  *schedule
	ids []int
	// sampled marks the sampled request IDs (read-only during the run);
	// got[id] is the last body served for it and gotVisit[id] the
	// session's answer count at that point. visits[s] counts session s's
	// answers since priming. All three are written only by the worker
	// owning the request's session.
	sampled  []bool
	got      [][]byte
	gotVisit []int
	visits   []int
}

func newChecker(w *workload, sc *schedule) *checker {
	c := &checker{w: w, sc: sc, sampled: make([]bool, len(sc.reqs)), got: make([][]byte, len(sc.reqs)),
		gotVisit: make([]int, len(sc.reqs)), visits: make([]int, len(w.sessions))}
	if w.shape.observe {
		return c
	}
	// Sample among steady-state requests (drift rounds ≥ 1), which are
	// served warm.
	var pool []int
	for _, r := range sc.reqs {
		if r.step > 0 {
			pool = append(pool, r.id)
		}
	}
	rng := rand.New(rand.NewPCG(w.seed, 0xc4ec4))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	c.ids = pool[:min(len(pool), w.shape.samples)]
	for _, id := range c.ids {
		c.sampled[id] = true
	}
	return c
}

// capture is the loop's check hook: it counts the session's answers and
// keeps sampled bodies.
func (c *checker) capture(r *request, body []byte) bool {
	c.visits[r.sess]++
	if c.sampled[r.id] {
		c.got[r.id] = append(c.got[r.id][:0], body...)
		c.gotVisit[r.id] = c.visits[r.sess]
	}
	return true
}

// verify checks every captured sample. It returns how many were checked,
// a description of each failure, and each warm/cold disagreement of the
// library.
func (c *checker) verify() (checked int, bad, findings []string) {
	var mu sync.Mutex
	_ = conc.ForEach(len(c.ids), func(i int) error {
		id := c.ids[i]
		if c.got[id] == nil {
			return nil // not served during the run
		}
		finding, err := c.verifyOne(&c.sc.reqs[id], c.got[id], c.gotVisit[id])
		mu.Lock()
		defer mu.Unlock()
		checked++
		if err != nil {
			bad = append(bad, err.Error())
		}
		if finding != "" {
			findings = append(findings, finding)
		}
		return nil
	})
	return checked, bad, findings
}

// answer is the part of a solve answer the checks compare.
type answer struct{ quality, cost float64 }

func (c *checker) verifyOne(r *request, body []byte, visit int) (finding string, err error) {
	se := c.w.sessions[r.sess]
	var resp scenario.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("session %s round %d: decoding answer: %v", se.id, r.step, err)
	}
	if resp.SessionID != se.id || resp.Result == nil {
		return "", fmt.Errorf("session %s round %d: answer for session %q without a result", se.id, r.step, resp.SessionID)
	}
	// The loop replays each session's steps in order from priming on, so
	// its visit-th answer is drift round pingpong(visit).
	if want := pingpong(visit, c.w.shape.rounds); want != r.step {
		return "", fmt.Errorf("session %s: answer %d is round %d, the schedule implies round %d", se.id, visit, r.step, want)
	}
	served := answer{resp.Result.Quality, resp.Result.CostPerSecond}
	warm, err := replay(se, c.w.shape.rounds, visit)
	if err != nil {
		return "", fmt.Errorf("session %s round %d: library replay: %v", se.id, r.step, err)
	}
	if math.Abs(served.quality-warm.quality) > replayTol || math.Abs(served.cost-warm.cost) > replayTol*math.Max(1, math.Abs(warm.cost)) {
		return "", fmt.Errorf("session %s round %d (answer %d): served quality %.12g cost %.12g, library warm replay %.12g cost %.12g",
			se.id, r.step, visit, served.quality, served.cost, warm.quality, warm.cost)
	}
	if se.minCost && served.quality < se.floor-qualityTol {
		return "", fmt.Errorf("session %s round %d: served quality %.9f under the floor %.9f", se.id, r.step, served.quality, se.floor)
	}

	net := se.nets[r.step]
	if !se.minCost {
		ref, err := core.SolveQuality(net)
		if err != nil {
			return "", fmt.Errorf("session %s round %d: cold solve: %v", se.id, r.step, err)
		}
		if d := math.Abs(warm.quality - ref.Quality); d > qualityTol {
			finding = fmt.Sprintf("session %s round %d (answer %d): warm quality %.9f, cold %.9f (|Δ| %.2e)", se.id, r.step, visit, warm.quality, ref.Quality, d)
		}
		return finding, nil
	}
	ref, err := core.SolveMinCost(net, se.floor)
	if err != nil {
		return "", fmt.Errorf("session %s round %d: cold solve: %v", se.id, r.step, err)
	}
	if d := math.Abs(warm.cost - ref.Cost()); d > costRelTol*math.Max(1, math.Abs(ref.Cost())) {
		finding = fmt.Sprintf("session %s round %d (answer %d): warm cost %.9g, cold %.9g", se.id, r.step, visit, warm.cost, ref.Cost())
	}
	return finding, nil
}

// replay runs a session's history through a fresh core.WarmPool under
// the session's key, as the daemon's shard does: the priming solve of
// round 0, then visit drift steps. It returns the last answer.
func replay(se *session, rounds, visit int) (answer, error) {
	pool := core.NewWarmPool()
	var last answer
	for k := 0; k <= visit; k++ {
		net := se.nets[pingpong(k, rounds)]
		var (
			sol *core.Solution
			err error
		)
		if se.minCost {
			sol, err = pool.SolveSessionMinCost(se.id, net, se.floor)
		} else {
			sol, err = pool.SolveSession(se.id, net)
		}
		if err != nil {
			return answer{}, err
		}
		last = answer{sol.Quality, sol.Cost()}
	}
	return last, nil
}

// verifyDurable checks the replicated stack after an observe-durable
// run: the follower caught up, no sync acknowledgement timed out, and no
// journal append failed. It returns what it read, for the report.
func verifyDurable(st *stack, sessions int) (durableReport, []string) {
	var (
		rep durableReport
		bad []string
	)
	caughtUp := waitFor(10*time.Second, func() bool {
		pm, err := primaryMetrics(st.primary)
		if err != nil || pm.Replication == nil || pm.Durability == nil {
			return false
		}
		rep = durableReport{syncTimeouts: pm.Replication.SyncTimeouts, journalErrors: pm.Durability.JournalErrors, snapshots: pm.Durability.Snapshots, lag: -1}
		for _, f := range pm.Replication.Followers {
			rep.lag = max(rep.lag, f.LagBytes)
		}
		return rep.lag == 0
	})
	if !caughtUp {
		bad = append(bad, fmt.Sprintf("follower lag %d bytes did not drain to 0", rep.lag))
	}
	if rep.syncTimeouts != 0 {
		bad = append(bad, fmt.Sprintf("%d sync acknowledgement timeouts", rep.syncTimeouts))
	}
	if rep.journalErrors != 0 {
		bad = append(bad, fmt.Sprintf("%d journal errors", rep.journalErrors))
	}
	fm, err := followerMetrics(st.follower)
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("follower metrics: %v", err))
	case fm.Fenced || fm.Sessions != sessions:
		bad = append(bad, fmt.Sprintf("follower fenced=%v with %d of %d sessions", fm.Fenced, fm.Sessions, sessions))
	default:
		rep.followerRecords = fm.RecordsApplied
	}
	return rep, bad
}

// durableReport is what verifyDurable read from the primary's and the
// follower's /metrics.
type durableReport struct {
	syncTimeouts    uint64
	journalErrors   uint64
	snapshots       uint64
	lag             int64
	followerRecords uint64
}
