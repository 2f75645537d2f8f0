package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// TestDenseResolveEqualsColdBitwise pins the dense re-solve contract: a
// dense Resolve, ResolveMinCost or ResolveQualityRandom solves its
// master cold, so on a drift ring every answer's split X and Quality
// must equal a cold one-shot solve of the same network bit for bit, not
// merely to a tolerance. The shapes run from 3×2 up to 10×3 and 44×2
// (2,025 combinations, the largest dense m = 2 shape); the random-delay
// objective needs m = 2, so it takes only those. The min-cost floor is
// half the ring's first quality optimum.
func TestDenseResolveEqualsColdBitwise(t *testing.T) {
	shapes := []struct{ paths, trans int }{{3, 2}, {4, 2}, {6, 3}, {10, 3}, {20, 2}, {44, 2}}
	const steps = 8
	for _, sh := range shapes {
		rng := rand.New(rand.NewPCG(0xb17e, uint64(sh.paths*10+sh.trans)))
		ring := make([]*Network, steps)
		net := diffRandomNetwork(rng, sh.paths, sh.trans)
		for i := range ring {
			net = driftNetwork(rng, net, 0.1)
			ring[i] = net
		}
		q0, err := SolveQuality(ring[0])
		if err != nil {
			t.Fatal(err)
		}
		floor := q0.Quality / 2

		objectives := []struct {
			name        string
			warm        func(s *Solver, n *Network) (*Solution, error)
			cold        func(n *Network) (*Solution, error)
			needsTwoTrx bool
		}{
			{"quality", (*Solver).Resolve, SolveQuality, false},
			{"mincost",
				func(s *Solver, n *Network) (*Solution, error) { return s.ResolveMinCost(n, floor) },
				func(n *Network) (*Solution, error) { return SolveMinCost(n, floor) }, false},
			{"random",
				func(s *Solver, n *Network) (*Solution, error) {
					return s.ResolveQualityRandom(n, randomResolveTimeouts(t, n))
				},
				func(n *Network) (*Solution, error) {
					return SolveQualityRandom(n, randomResolveTimeouts(t, n))
				}, true},
		}
		for _, obj := range objectives {
			if obj.needsTwoTrx && sh.trans != 2 {
				continue
			}
			name := fmt.Sprintf("%dx%d/%s", sh.paths, sh.trans, obj.name)
			warm := NewSolver()
			compared, primed := 0, false
			// Two laps of the ring: the second re-solves every network
			// from the state the first left behind.
			for k := 0; k < 2*steps; k++ {
				n := ring[k%steps]
				wsol, werr := obj.warm(warm, n)
				csol, cerr := obj.cold(n)
				if cerr != nil || werr != nil {
					if errors.Is(cerr, ErrInfeasible) && errors.Is(werr, ErrInfeasible) {
						primed = false // an infeasible floor drops the warm state
						continue
					}
					t.Fatalf("%s step %d: warm %v, cold %v", name, k, werr, cerr)
				}
				if wsol.Stats.Dispatch != DispatchDense {
					t.Fatalf("%s step %d: dispatch %v, want dense", name, k, wsol.Stats.Dispatch)
				}
				if primed && !wsol.Stats.Warm {
					t.Fatalf("%s step %d: re-solve did not use the warm state", name, k)
				}
				primed = true
				if math.Float64bits(wsol.Quality) != math.Float64bits(csol.Quality) {
					t.Fatalf("%s step %d: quality %v, cold %v (Δ %.3e)",
						name, k, wsol.Quality, csol.Quality, wsol.Quality-csol.Quality)
				}
				if len(wsol.X) != len(csol.X) {
					t.Fatalf("%s step %d: %d columns, cold %d", name, k, len(wsol.X), len(csol.X))
				}
				for j := range wsol.X {
					if math.Float64bits(wsol.X[j]) != math.Float64bits(csol.X[j]) {
						t.Fatalf("%s step %d: x[%d] = %v, cold %v (Δ %.3e)",
							name, k, j, wsol.X[j], csol.X[j], wsol.X[j]-csol.X[j])
					}
				}
				compared++
			}
			if compared == 0 {
				t.Fatalf("%s: no step was compared", name)
			}
		}
	}
}
