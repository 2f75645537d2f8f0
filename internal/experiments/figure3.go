package experiments

import (
	"fmt"
	"time"

	"dmc/internal/conc"
	"dmc/internal/core"
	"dmc/internal/proto"
)

// Fig3Param selects which estimated characteristic the sensitivity sweep
// perturbs.
type Fig3Param int

const (
	// Fig3Bandwidth sweeps relative bandwidth estimation error (top plot).
	Fig3Bandwidth Fig3Param = iota + 1
	// Fig3Delay sweeps relative delay estimation error (middle plot).
	Fig3Delay
	// Fig3Loss sweeps absolute loss estimation error (bottom plot).
	Fig3Loss
)

// String names the parameter.
func (p Fig3Param) String() string {
	switch p {
	case Fig3Bandwidth:
		return "bandwidth"
	case Fig3Delay:
		return "delay"
	case Fig3Loss:
		return "loss"
	default:
		return fmt.Sprintf("Fig3Param(%d)", int(p))
	}
}

// Fig3Point is one error position with the measured quality when the
// error afflicts path 1 and when it afflicts path 2.
type Fig3Point struct {
	// Error is relative (−0.5…+0.5) for bandwidth/delay, absolute
	// (−0.2…+1.0) for loss.
	Error        float64
	QualityPath1 float64
	QualityPath2 float64
}

// Figure3Config sizes the sensitivity sweep. The scenario is Experiment
// 3's: Table III network, λ = 90 Mbps, δ = 800 ms.
type Figure3Config struct {
	// Messages per simulated point; 0 means FullMessageCount.
	Messages int
	Seed     uint64
}

func (c Figure3Config) messages() int {
	if c.Messages <= 0 {
		return FullMessageCount
	}
	return c.Messages
}

// Figure3 sweeps estimation error for one parameter across both paths:
// the LP solves on the erroneous estimate while the simulation runs on
// the truth, reproducing the corresponding Figure 3 plot.
func Figure3(param Fig3Param, cfg Figure3Config) ([]Fig3Point, error) {
	var errs []float64
	switch param {
	case Fig3Bandwidth, Fig3Delay:
		for e := -0.5; e <= 0.501; e += 0.1 {
			errs = append(errs, e)
		}
	case Fig3Loss:
		for e := -0.2; e <= 1.001; e += 0.1 {
			errs = append(errs, e)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown sensitivity parameter %v", param)
	}

	// One task per (error position, afflicted path): seeds are derived
	// per point, so the sweep fans across GOMAXPROCS workers. Error is
	// filled up front — the two tasks of a pair share the slot and must
	// each write only their own field.
	out := make([]Fig3Point, len(errs))
	for i, e := range errs {
		out[i].Error = e
	}
	err := conc.ForEach(2*len(errs), func(i int) error {
		e := errs[i/2]
		path := i % 2
		q, err := figure3Point(param, path, e, cfg)
		if err != nil {
			return fmt.Errorf("experiments: figure 3 %v path %d err %v: %w", param, path+1, e, err)
		}
		if path == 0 {
			out[i/2].QualityPath1 = q
		} else {
			out[i/2].QualityPath2 = q
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// figure3Point builds the erroneous estimate, solves it, and simulates
// against the truth.
func figure3Point(param Fig3Param, path int, e float64, cfg Figure3Config) (float64, error) {
	est := TableIIINetwork(90, 800*time.Millisecond)
	switch param {
	case Fig3Bandwidth:
		est.Paths[path].Bandwidth *= 1 + e
	case Fig3Delay:
		est.Paths[path].Delay = time.Duration(float64(est.Paths[path].Delay) * (1 + e))
	case Fig3Loss:
		loss := est.Paths[path].Loss + e
		if loss < 0 {
			loss = 0
		}
		if loss > 1 {
			loss = 1
		}
		est.Paths[path].Loss = loss
	}
	sol, err := core.SolveQuality(est)
	if err != nil {
		return 0, err
	}
	to, err := TrueTimeouts()
	if err != nil {
		return 0, err
	}
	seed := cfg.Seed + uint64(param)*1000003 + uint64(path)*10007 + uint64((e+2)*100)
	return simulateQuality(proto.Config{
		Solution:     sol,
		Timeouts:     to,
		TruePaths:    TrueLinks(),
		MessageCount: cfg.messages(),
	}, seed)
}

// RenderFigure3 renders one sensitivity plot as a table.
func RenderFigure3(param Fig3Param, points []Fig3Point) string {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%+.1f", p.Error),
			fmt.Sprintf("%.2f%%", p.QualityPath1*100),
			fmt.Sprintf("%.2f%%", p.QualityPath2*100),
		})
	}
	return RenderTable([]string{param.String() + " error", "quality (path1 err)", "quality (path2 err)"}, rows)
}
