package experiments

import (
	"fmt"
	"time"

	"dmc/internal/core"
	"dmc/internal/netsim"
	"dmc/internal/proto"
	"dmc/internal/sched"
)

// SchedulerAblationRow reports one selector's outcome on the Experiment 1
// scenario (λ = 90 Mbps, δ = 800 ms, theory Q = 14/15 ≈ 93.33 %).
type SchedulerAblationRow struct {
	Selector string
	Quality  float64
	// Duplicates and Retransmissions expose secondary effects of bursty
	// schedules.
	Duplicates      int
	Retransmissions int
}

// SchedulerAblation compares Algorithm 1 against the weighted-random and
// round-robin baselines under identical network randomness.
func SchedulerAblation(messages int, seed uint64) ([]SchedulerAblationRow, error) {
	if messages <= 0 {
		messages = FullMessageCount
	}
	n := TableIIINetwork(90, 800*time.Millisecond)
	sol, err := core.SolveQuality(n)
	if err != nil {
		return nil, err
	}
	to, err := TrueTimeouts()
	if err != nil {
		return nil, err
	}

	type mkSel func(sim *netsim.Simulator) (sched.Selector, error)
	cases := []struct {
		name string
		mk   mkSel
	}{
		{"deficit (Algorithm 1)", func(*netsim.Simulator) (sched.Selector, error) {
			return sched.NewDeficit(sol.X)
		}},
		{"weighted-random", func(sim *netsim.Simulator) (sched.Selector, error) {
			return sched.NewWeightedRandom(sol.X, sim.RNG("ablation/selector"))
		}},
		{"round-robin", func(*netsim.Simulator) (sched.Selector, error) {
			return sched.NewRoundRobin(sol.X, 0)
		}},
	}

	var out []SchedulerAblationRow
	for _, tc := range cases {
		sim := netsim.NewSimulator(seed)
		sel, err := tc.mk(sim)
		if err != nil {
			return nil, fmt.Errorf("experiments: scheduler ablation %s: %w", tc.name, err)
		}
		res, err := proto.Run(sim, proto.Config{
			Solution:     sol,
			Timeouts:     to,
			TruePaths:    TrueLinks(),
			Selector:     sel,
			MessageCount: messages,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scheduler ablation %s: %w", tc.name, err)
		}
		out = append(out, SchedulerAblationRow{
			Selector:        tc.name,
			Quality:         res.Quality(),
			Duplicates:      res.Duplicates,
			Retransmissions: res.Retransmissions,
		})
	}
	return out, nil
}

// RenderSchedulerAblation renders the comparison.
func RenderSchedulerAblation(rows []SchedulerAblationRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Selector,
			fmt.Sprintf("%.2f%%", r.Quality*100),
			fmt.Sprint(r.Retransmissions),
			fmt.Sprint(r.Duplicates),
		})
	}
	return RenderTable([]string{"selector", "quality", "retransmissions", "duplicates"}, out)
}

// AckAblationRow reports the §VIII-C acknowledgment-scheme comparison
// under a lossy acknowledgment channel.
type AckAblationRow struct {
	Scheme     string
	Quality    float64
	Duplicates int
}

// AckAblation runs the single-lossy-path scenario with plain per-packet
// acks vs vector acks over an acknowledgment channel with the given loss.
func AckAblation(messages int, ackLoss float64, seed uint64) ([]AckAblationRow, error) {
	if messages <= 0 {
		messages = 20_000
	}
	n := core.NewNetwork(2*core.Mbps, 500*time.Millisecond,
		core.Path{Name: "a", Bandwidth: 10 * core.Mbps, Delay: 100 * time.Millisecond, Loss: 0.2})
	sol, err := core.SolveQuality(n)
	if err != nil {
		return nil, err
	}
	to, err := core.DeterministicTimeouts(n, 50*time.Millisecond)
	if err != nil {
		return nil, err
	}
	ack := proto.LinksFromNetwork(n, QueueLimit)[0]
	ack.Name = "ack"
	ack.Loss = ackLoss

	var out []AckAblationRow
	for _, tc := range []struct {
		name   string
		window int
	}{
		{"plain acks", 0},
		{"vector acks (64)", 64},
	} {
		sim := netsim.NewSimulator(seed)
		res, err := proto.Run(sim, proto.Config{
			Solution:     sol,
			Timeouts:     to,
			TruePaths:    proto.LinksFromNetwork(n, QueueLimit),
			AckLink:      &ack,
			AckWindow:    tc.window,
			MessageCount: messages,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ack ablation %s: %w", tc.name, err)
		}
		out = append(out, AckAblationRow{Scheme: tc.name, Quality: res.Quality(), Duplicates: res.Duplicates})
	}
	return out, nil
}

// RenderAckAblation renders the acknowledgment-scheme comparison.
func RenderAckAblation(rows []AckAblationRow, ackLoss float64) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Scheme,
			fmt.Sprintf("%.2f%%", r.Quality*100),
			fmt.Sprint(r.Duplicates),
		})
	}
	return fmt.Sprintf("ack loss %.0f%%\n%s", ackLoss*100, RenderTable([]string{"scheme", "quality", "duplicates"}, out))
}
