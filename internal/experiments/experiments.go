// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) plus the ablations called out in DESIGN.md. Each
// experiment returns structured results; Render* helpers produce
// paper-style text tables. cmd/reproduce drives everything; the root
// bench_test.go exposes one benchmark per table/figure.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dmc/internal/core"
	"dmc/internal/dist"
	"dmc/internal/netsim"
	"dmc/internal/proto"
	"dmc/internal/ratlp"
)

// Paper workload constants (§VII-A).
const (
	// FullMessageCount is the paper's 100,000 messages per run.
	FullMessageCount = 100_000
	// QueueLimit is the drop-tail buffer for simulated links (packets).
	QueueLimit = 100
)

// TableIIINetwork returns the two-path Experiment 1/3 network with the
// §VII conservative model delays (450/150 ms).
func TableIIINetwork(rateMbps float64, lifetime time.Duration) *core.Network {
	return core.NewNetwork(rateMbps*core.Mbps, lifetime,
		core.Path{Name: "path1", Bandwidth: 80 * core.Mbps, Delay: 450 * time.Millisecond, Loss: 0.2},
		core.Path{Name: "path2", Bandwidth: 20 * core.Mbps, Delay: 150 * time.Millisecond, Loss: 0},
	)
}

// TableIIIExact is TableIIINetwork with exact rational characteristics
// (loss 1/5 exactly), for CGAL-faithful Table IV solutions.
func TableIIIExact(rateMbps int64, lifetime time.Duration) *core.ExactNetwork {
	return &core.ExactNetwork{
		Rate:     ratlp.Int(rateMbps * 1_000_000),
		Lifetime: lifetime,
		Paths: []core.ExactPath{
			{Name: "path1", Bandwidth: ratlp.Int(80_000_000), Delay: 450 * time.Millisecond, Loss: ratlp.Rat(1, 5)},
			{Name: "path2", Bandwidth: ratlp.Int(20_000_000), Delay: 150 * time.Millisecond, Loss: ratlp.Int(0)},
		},
	}
}

// TrueLinks returns the Experiment 1 ground-truth links: raw propagation
// delays 400/100 ms (the model's 450/150 ms include the queueing
// allowance measured in §VII).
func TrueLinks() []netsim.LinkConfig {
	return []netsim.LinkConfig{
		{Name: "path1", Bandwidth: 80 * core.Mbps, Delay: dist.Deterministic{D: 400 * time.Millisecond}, Loss: 0.2, QueueLimit: QueueLimit},
		{Name: "path2", Bandwidth: 20 * core.Mbps, Delay: dist.Deterministic{D: 100 * time.Millisecond}, Loss: 0, QueueLimit: QueueLimit},
	}
}

// TrueTimeouts returns the Experiment 1 retransmission timeouts: 100 ms
// beyond the true acknowledgment return time (tᵢ = dᵢ + d_min + 100 ms on
// raw delays, §VII).
func TrueTimeouts() (*core.Timeouts, error) {
	trueNet := core.NewNetwork(90*core.Mbps, 800*time.Millisecond,
		core.Path{Bandwidth: 80 * core.Mbps, Delay: 400 * time.Millisecond, Loss: 0.2},
		core.Path{Bandwidth: 20 * core.Mbps, Delay: 100 * time.Millisecond, Loss: 0},
	)
	return core.DeterministicTimeouts(trueNet, 100*time.Millisecond)
}

// TableVNetwork returns the Experiment 2 random-delay network (Table V):
// shifted-gamma delays, λ = 90 Mbps, δ = 750 ms.
func TableVNetwork() *core.Network {
	return core.NewNetwork(90*core.Mbps, 750*time.Millisecond,
		core.Path{Name: "path1", Bandwidth: 80 * core.Mbps, Loss: 0.2,
			RandDelay: dist.ShiftedGamma{Loc: 400 * time.Millisecond, Shape: 10, Scale: 4 * time.Millisecond}},
		core.Path{Name: "path2", Bandwidth: 20 * core.Mbps, Loss: 0,
			RandDelay: dist.ShiftedGamma{Loc: 100 * time.Millisecond, Shape: 5, Scale: 2 * time.Millisecond}},
	)
}

// TableVTrueLinks returns Experiment 2's ground-truth links. The paper
// over-provisions raw bandwidth so that only the model's allowance is
// used and queueing stays negligible, isolating the delay distribution.
func TableVTrueLinks() []netsim.LinkConfig {
	n := TableVNetwork()
	links := proto.LinksFromNetwork(n, QueueLimit)
	for i := range links {
		links[i].Bandwidth *= 4
	}
	return links
}

// simulateQuality solves nothing: it runs cfg and returns measured
// quality.
func simulateQuality(cfg proto.Config, seed uint64) (float64, error) {
	sim := netsim.NewSimulator(seed)
	res, err := proto.Run(sim, cfg)
	if err != nil {
		return 0, err
	}
	return res.Quality(), nil
}

// RenderTable renders a fixed-width text table.
func RenderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
